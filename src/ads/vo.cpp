#include "ads/vo.h"

namespace gem2::ads {

uint64_t VoSizeBytes(const TreeVo& vo) {
  uint64_t size = 1;
  if (vo.empty_tree) return size;
  for (const VoElement& e : vo.elements) {
    switch (e.kind) {
      case VoElement::Kind::kResult:
        size += 1 + 8;
        break;
      case VoElement::Kind::kBoundary:
        size += 1 + 8 + 32;
        break;
      case VoElement::Kind::kPruned:
        size += 1 + 8 + 8 + 32;
        break;
      case VoElement::Kind::kNode:
        size += 1 + 2;
        break;
    }
  }
  return size;
}

}  // namespace gem2::ads
