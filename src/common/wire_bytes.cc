#include "src/common/wire_bytes.h"

namespace dcc {

const std::vector<uint8_t>& WireBytes::EmptyBytes() {
  static const std::vector<uint8_t> empty;
  return empty;
}

WireBytes::WireBytes(std::vector<uint8_t> bytes)
    : block_(new Block{std::move(bytes), 1}) {}

std::vector<uint8_t>& WireBytes::Mutable() {
  if (block_ == nullptr) {
    block_ = new Block{{}, 1};
  } else if (block_->refs > 1) {
    Block* fresh = new Block{block_->bytes, 1};  // The one genuine copy.
    --block_->refs;
    block_ = fresh;
  }
  return block_->bytes;
}

}  // namespace dcc
