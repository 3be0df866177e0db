#include "src/util/cigar.h"

#include <algorithm>
#include <cctype>

#include "src/util/check.h"

namespace segram
{

char
editOpToChar(EditOp op)
{
    switch (op) {
      case EditOp::Match: return '=';
      case EditOp::Substitution: return 'X';
      case EditOp::Insertion: return 'I';
      case EditOp::Deletion: return 'D';
    }
    return '?';
}

EditOp
charToEditOp(char c)
{
    switch (c) {
      case '=': return EditOp::Match;
      case 'X': return EditOp::Substitution;
      case 'I': return EditOp::Insertion;
      case 'D': return EditOp::Deletion;
      default:
        SEGRAM_CHECK(false, std::string("unknown CIGAR op: ") + c);
    }
    // Unreachable; SEGRAM_CHECK(false, ...) throws.
    return EditOp::Match;
}

Cigar
Cigar::fromString(std::string_view text)
{
    Cigar out;
    uint64_t len = 0;
    bool have_len = false;
    for (const char c : text) {
        if (std::isdigit(static_cast<unsigned char>(c))) {
            len = len * 10 + (c - '0');
            have_len = true;
            SEGRAM_CHECK(len <= UINT32_MAX, "CIGAR run length overflow");
        } else {
            SEGRAM_CHECK(have_len && len > 0,
                         "CIGAR op '" + std::string(1, c) +
                             "' without a positive length");
            out.push(charToEditOp(c), static_cast<uint32_t>(len));
            len = 0;
            have_len = false;
        }
    }
    SEGRAM_CHECK(!have_len, "trailing CIGAR length without an op");
    return out;
}

void
Cigar::push(EditOp op, uint32_t len)
{
    if (len == 0)
        return;
    if (!runs_.empty() && runs_.back().op == op)
        runs_.back().len += len;
    else
        runs_.push_back({op, len});
}

void
Cigar::append(const Cigar &other)
{
    for (const auto &run : other.runs_)
        push(run.op, run.len);
}

void
Cigar::reverse()
{
    std::reverse(runs_.begin(), runs_.end());
}

uint64_t
Cigar::count(EditOp op) const
{
    uint64_t total = 0;
    for (const auto &run : runs_) {
        if (run.op == op)
            total += run.len;
    }
    return total;
}

uint64_t
Cigar::editDistance() const
{
    return count(EditOp::Substitution) + count(EditOp::Insertion) +
           count(EditOp::Deletion);
}

uint64_t
Cigar::readLength() const
{
    return count(EditOp::Match) + count(EditOp::Substitution) +
           count(EditOp::Insertion);
}

uint64_t
Cigar::refLength() const
{
    return count(EditOp::Match) + count(EditOp::Substitution) +
           count(EditOp::Deletion);
}

std::string
Cigar::toString() const
{
    std::string out;
    for (const auto &run : runs_) {
        out += std::to_string(run.len);
        out.push_back(editOpToChar(run.op));
    }
    return out;
}

bool
Cigar::validate(std::string_view read, std::string_view ref_path) const
{
    size_t read_pos = 0;
    size_t ref_pos = 0;
    for (const auto &run : runs_) {
        for (uint32_t i = 0; i < run.len; ++i) {
            switch (run.op) {
              case EditOp::Match:
                if (read_pos >= read.size() || ref_pos >= ref_path.size() ||
                    read[read_pos] != ref_path[ref_pos]) {
                    return false;
                }
                ++read_pos;
                ++ref_pos;
                break;
              case EditOp::Substitution:
                if (read_pos >= read.size() || ref_pos >= ref_path.size() ||
                    read[read_pos] == ref_path[ref_pos]) {
                    return false;
                }
                ++read_pos;
                ++ref_pos;
                break;
              case EditOp::Insertion:
                if (read_pos >= read.size())
                    return false;
                ++read_pos;
                break;
              case EditOp::Deletion:
                if (ref_pos >= ref_path.size())
                    return false;
                ++ref_pos;
                break;
            }
        }
    }
    return read_pos == read.size() && ref_pos == ref_path.size();
}

} // namespace segram
