// Deliberately-violating fixture for segram_lint --self-test: every
// line below marked VIOLATION must fire, proving the lint can fail.
// This file is never compiled.
#include <cassert>
#include <iostream>
#include <memory>

void
hot_path_sins(std::ostream &out, int n, const GenomeGraph &graph)
{
    SEGRAM_CHECK(graph.isTopologicallySorted(), "x"); // VIOLATION hot-path-graph-scan
    n += static_cast<int>(graph.pathLength());        // VIOLATION hot-path-graph-scan
    int *raw = new int[n];                          // VIOLATION hot-path-alloc
    auto owned = std::make_unique<int>(n);          // VIOLATION hot-path-alloc
    auto shared = std::make_shared<int>(n);         // VIOLATION hot-path-alloc
    void *c_style = malloc(static_cast<size_t>(n)); // VIOLATION hot-path-alloc
    out << *raw << *owned << *shared << std::endl;  // VIOLATION no-endl
    assert(c_style != nullptr);                     // VIOLATION bare-assert
    // "new FooBar in a string" and a comment saying new Thing() must
    // NOT fire: both are stripped before matching.
    const char *prose = "allocates via new Widget()";
    (void)prose;
}
