#include "src/common/wire_bytes.h"

namespace dcc {

const std::vector<uint8_t>& WireBytes::EmptyBytes() {
  static const std::vector<uint8_t> empty;
  return empty;
}

WireBytes::WireBytes(std::vector<uint8_t> bytes) : block_(new Block) {
  block_->bytes = std::move(bytes);
}

const std::vector<uint8_t>& WireBytes::bytes() const {
  if (block_ == nullptr) {
    return EmptyBytes();
  }
  if (!block_->encoded) {
    block_->Encode();
    block_->encoded = true;
  }
  return block_->bytes;
}

std::vector<uint8_t>& WireBytes::Mutable() {
  if (block_ == nullptr) {
    block_ = new Block;
  } else if (block_->refs > 1 || block_->type() != nullptr) {
    Block* plain = new Block;
    if (block_->refs == 1) {
      bytes();  // A carrier no other handle sees: its encoding can move.
      plain->bytes = std::move(block_->bytes);
    } else {
      plain->bytes = bytes();  // The one genuine copy.
    }
    Unref();
    block_ = plain;
  }
  return block_->bytes;
}

}  // namespace dcc
