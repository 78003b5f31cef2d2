#include "src/common/wire_bytes.h"

#include "src/common/arena.h"

namespace dcc {

// One pool per thread (simulators are single-threaded; dcc_search workers
// each own one). Released blocks keep their byte capacity for the next
// copy-on-write clone or Mutable() fill. Function-local so the pool outlives
// every WireBytes constructed after first use on the thread.
SlabPool<WireBytes::Block>& WireBytes::Pool() {
  thread_local SlabPool<Block> pool(/*slab_size=*/256);
  return pool;
}

WireBytes::Block* WireBytes::AcquireBlock() { return Pool().Acquire(); }

void WireBytes::ReleaseBlock(Block* block) {
  block->bytes.clear();  // Keep capacity for the block's next user.
  Pool().Release(block);
}

const std::vector<uint8_t>& WireBytes::EmptyBytes() {
  static const std::vector<uint8_t> empty;
  return empty;
}

WireBytes::WireBytes(std::vector<uint8_t> bytes) {
  block_ = AcquireBlock();
  block_->bytes = std::move(bytes);
  block_->refs = 1;
}

std::vector<uint8_t>& WireBytes::Mutable() {
  if (block_ == nullptr) {
    block_ = AcquireBlock();
    block_->bytes.clear();
    block_->refs = 1;
    return block_->bytes;
  }
  if (block_->refs > 1) {
    Block* fresh = AcquireBlock();
    fresh->bytes = block_->bytes;  // The one genuine copy: COW fault edits.
    fresh->refs = 1;
    --block_->refs;
    block_ = fresh;
  }
  return block_->bytes;
}

}  // namespace dcc
