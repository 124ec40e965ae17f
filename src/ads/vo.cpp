#include "ads/vo.h"

namespace gem2::ads {
namespace {

uint64_t ChildSize(const VoChild& child) {
  if (const auto* e = std::get_if<VoEntry>(&child)) {
    return e->is_result ? (1 + 8) : (1 + 8 + 32);
  }
  if (std::holds_alternative<VoPruned>(child)) return 1 + 8 + 8 + 32;
  const VoNode& node = *std::get<VoNodePtr>(child);
  uint64_t size = 1 + 2;
  for (const VoChild& c : node.children) size += ChildSize(c);
  return size;
}

}  // namespace

VoChild CloneChild(const VoChild& child) {
  if (const auto* e = std::get_if<VoEntry>(&child)) return VoChild(*e);
  if (const auto* p = std::get_if<VoPruned>(&child)) return VoChild(*p);
  const VoNode& node = *std::get<VoNodePtr>(child);
  auto copy = std::make_unique<VoNode>();
  copy->children.reserve(node.children.size());
  for (const VoChild& c : node.children) copy->children.push_back(CloneChild(c));
  return VoChild(std::move(copy));
}

TreeVo CloneVo(const TreeVo& vo) {
  TreeVo copy;
  copy.empty_tree = vo.empty_tree;
  if (vo.root) copy.root = CloneChild(*vo.root);
  return copy;
}

uint64_t VoSizeBytes(const TreeVo& vo) {
  if (vo.empty_tree || !vo.root) return 1;
  return 1 + ChildSize(*vo.root);
}

}  // namespace gem2::ads
