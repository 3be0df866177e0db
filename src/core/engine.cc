#include "src/core/engine.h"

#include "src/util/check.h"
#include "src/util/dna.h"

namespace segram::core
{

RcRetryEngine::RcRetryEngine(std::unique_ptr<MappingEngine> inner)
    : inner_(std::move(inner))
{
    SEGRAM_CHECK(inner_ != nullptr, "RcRetryEngine needs an engine");
}

MapResult
RcRetryEngine::mapOne(std::string_view read, PipelineStats *stats,
                      MapWorkspace &workspace) const
{
    PipelineStats local;
    MapResult forward = inner_->mapOne(read, &local, workspace);
    MapResult reverse;
    // A perfect forward alignment cannot be beaten (ties keep the
    // forward strand), so skip the RC pass for it.
    if (!forward.mapped || forward.editDistance > 0) {
        reverseComplement(read, workspace.rcRetryBuffer);
        reverse =
            inner_->mapOne(workspace.rcRetryBuffer, &local, workspace);
        reverse.reverseComplemented = true;
    }
    MapResult &best = replacesResult(reverse, forward) ? reverse : forward;
    if (stats != nullptr) {
        // Both strand passes were one logical read.
        local.readsTotal = 1;
        local.readsMapped = best.mapped ? 1 : 0;
        *stats += local;
    }
    return best;
}

} // namespace segram::core
