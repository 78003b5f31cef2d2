// Refcounted immutable wire buffer for the datagram delivery path.
//
// A datagram's bytes used to be a std::vector<uint8_t> copied or reallocated
// at every seam: encode into a fresh vector, move into the network lambda,
// retransmissions re-encoding the identical query. WireBytes makes the
// common case free: the buffer is allocated once, shared by reference count
// through the network, and never copied unless someone actually writes to
// it.
//
// Copy-on-write: the fault layer may corrupt or truncate a datagram in
// flight. Mutable() returns the underlying vector for writing, first cloning
// the buffer when it is shared — so a cached retransmit encoding can be
// handed to the network repeatedly and a corruption fault on one copy can
// never damage the others.
//
// Determinism: WireBytes never consults clocks or RNGs; refcounting is
// invisible to simulation order. Not thread-safe — buffers must
// stay on the thread that created them (one simulator per thread, matching
// the profiler and metrics registries).

#ifndef SRC_COMMON_WIRE_BYTES_H_
#define SRC_COMMON_WIRE_BYTES_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace dcc {

class WireBytes {
 public:
  WireBytes() = default;

  // Adopts `bytes` (implicit: existing `Send(..., EncodeMessage(m))` call
  // sites compile unchanged). The vector is moved into a fresh block.
  WireBytes(std::vector<uint8_t> bytes);  // NOLINT(google-explicit-constructor)
  WireBytes(std::initializer_list<uint8_t> bytes)
      : WireBytes(std::vector<uint8_t>(bytes)) {}

  WireBytes(const WireBytes& other) : block_(other.block_) {
    if (block_ != nullptr) {
      ++block_->refs;
    }
  }
  WireBytes& operator=(const WireBytes& other) {
    if (this != &other) {
      Unref();
      block_ = other.block_;
      if (block_ != nullptr) {
        ++block_->refs;
      }
    }
    return *this;
  }
  WireBytes(WireBytes&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  WireBytes& operator=(WireBytes&& other) noexcept {
    if (this != &other) {
      Unref();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~WireBytes() { Unref(); }

  const std::vector<uint8_t>& bytes() const {
    return block_ != nullptr ? block_->bytes : EmptyBytes();
  }
  // Readers written against the old vector payload keep working.
  operator const std::vector<uint8_t>&() const { return bytes(); }
  operator std::span<const uint8_t>() const { return bytes(); }

  size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  const uint8_t* data() const { return bytes().data(); }
  uint8_t operator[](size_t i) const { return bytes()[i]; }

  friend bool operator==(const WireBytes& a, const WireBytes& b) {
    return a.bytes() == b.bytes();
  }
  friend bool operator==(const WireBytes& a, const std::vector<uint8_t>& b) {
    return a.bytes() == b;
  }
  friend bool operator==(const std::vector<uint8_t>& a, const WireBytes& b) {
    return a == b.bytes();
  }

  // True when another WireBytes shares this buffer.
  bool shared() const { return block_ != nullptr && block_->refs > 1; }

  // Writable view, cloning the buffer first if it is shared (copy-on-write).
  // The returned reference is valid until this WireBytes is copied, moved,
  // assigned or destroyed.
  std::vector<uint8_t>& Mutable();

 private:
  struct Block {
    std::vector<uint8_t> bytes;
    uint32_t refs = 0;
  };

  static const std::vector<uint8_t>& EmptyBytes();

  void Unref() {
    if (block_ != nullptr && --block_->refs == 0) {
      delete block_;
    }
    block_ = nullptr;
  }

  Block* block_ = nullptr;
};

}  // namespace dcc

#endif  // SRC_COMMON_WIRE_BYTES_H_
