#include "invidx/drop_policy.h"

namespace topk {

const char* DropModeName(DropMode mode) {
  switch (mode) {
    case DropMode::kNone:
      return "none";
    case DropMode::kConservative:
      return "conservative";
    case DropMode::kPositionRefined:
      return "position_refined";
  }
  return "unknown";
}

}  // namespace topk
