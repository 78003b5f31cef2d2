// Refcounted payload of a simulated datagram: the sender's message, or bytes.
//
// A sender hands its structured message (a dcc::Message) to the network
// inside the payload, and the receiver gets that same object back: moved
// out when the receiver holds the only handle, copied when another holder
// shares it. Nothing on the way encodes or decodes it.
// Wire bytes are built from the message only when something reads them (the
// fault layer's corruption and truncation, tests); they are built once and
// cached in the payload. Payloads that are bytes (built from a vector, or
// rewritten through Mutable()) are decoded by their receiver.
//
// src/common sits below src/dns, so the message type is a parameter here: a
// type T can be carried once WireCodec<T> names its encoder and decoder
// (src/dns/codec.h does this for Message).
//
// One block per payload: the handle is a pointer to a refcounted block that
// holds either the bytes or the carried value inline, next to its cached
// encoding. Copies share the block. Mutable() and GetMutable() clone a
// shared block before writing, so a corruption fault on one copy never
// damages another holder's.
//
// Determinism: WireBytes never consults clocks or RNGs; refcounting is
// invisible to simulation order. Not thread-safe — payloads must stay on the
// thread that created them (one simulator per thread, matching the profiler
// and metrics registries).

#ifndef SRC_COMMON_WIRE_BYTES_H_
#define SRC_COMMON_WIRE_BYTES_H_

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace dcc {

// Specialize with
//   static std::vector<uint8_t> Encode(const T&);
//   static std::optional<T> Decode(std::span<const uint8_t>);
// to let a WireBytes carry T. A carried value's encoding must not be empty.
template <class T>
struct WireCodec {};

template <class T>
concept WireCarried = requires(const T& value, std::span<const uint8_t> bytes) {
  { WireCodec<T>::Encode(value) } -> std::same_as<std::vector<uint8_t>>;
  { WireCodec<T>::Decode(bytes) } -> std::same_as<std::optional<T>>;
};

class WireBytes {
 public:
  WireBytes() = default;

  // Adopts `bytes` (implicit, so a vector passes where a payload is due).
  WireBytes(std::vector<uint8_t> bytes);  // NOLINT(google-explicit-constructor)
  WireBytes(std::initializer_list<uint8_t> bytes)
      : WireBytes(std::vector<uint8_t>(bytes)) {}

  // Carries `value`; its bytes are built on first read.
  template <WireCarried T>
  explicit WireBytes(T value) : block_(new Carrier<T>(std::move(value))) {}

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

  // The wire bytes, encoding a carried value on the first call.
  const std::vector<uint8_t>& bytes() const;
  operator const std::vector<uint8_t>&() const { return bytes(); }
  operator std::span<const uint8_t>() const { return bytes(); }

  size_t size() const { return bytes().size(); }
  // Encodes nothing: a carried value's encoding is never empty.
  bool empty() const {
    return block_ == nullptr || (block_->type() == nullptr && block_->bytes.empty());
  }
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

  // True when another WireBytes shares this block.
  bool shared() const { return block_ != nullptr && block_->refs > 1; }

  // Writable bytes, cloning the block first if it is shared (copy-on-write).
  // A carried value is encoded and dropped: from here on the payload is
  // bytes, and its receiver decodes them. The returned reference is valid
  // until this WireBytes is copied, moved, assigned or destroyed.
  std::vector<uint8_t>& Mutable();

  // The carried T, or nullptr when this payload is bytes (or empty).
  template <WireCarried T>
  const T* Carried() const {
    return block_ != nullptr && block_->type() == Carrier<T>::kType
               ? &static_cast<Carrier<T>*>(block_)->value
               : nullptr;
  }

  // The carried T. Bytes are decoded into a carried T first, once; nullptr
  // when they do not decode (the payload is left as it was).
  template <WireCarried T>
  const T* Get() {
    if (Carried<T>() == nullptr) {
      std::optional<T> decoded = WireCodec<T>::Decode(bytes());
      if (!decoded.has_value()) {
        return nullptr;
      }
      *this = WireBytes(std::move(*decoded));
    }
    return Carried<T>();
  }

  // Get(), writable: a shared block is cloned first, and the cached encoding
  // is dropped, so the next read of bytes() encodes the edited value.
  template <WireCarried T>
  T* GetMutable() {
    if (Get<T>() == nullptr) {
      return nullptr;
    }
    if (block_->refs > 1) {
      --block_->refs;
      block_ = new Carrier<T>(static_cast<Carrier<T>*>(block_)->value);
    }
    block_->encoded = false;
    return &static_cast<Carrier<T>*>(block_)->value;
  }

  // The receiver's read: the carried T, moved out when this is the only
  // handle and copied when another holder shares it; bytes are decoded.
  // nullopt when they do not decode. Leaves this payload empty.
  template <WireCarried T>
  std::optional<T> Take() {
    std::optional<T> out;
    if (Carried<T>() == nullptr) {
      out = WireCodec<T>::Decode(bytes());
    } else if (shared()) {
      out.emplace(*Carried<T>());
    } else {
      out.emplace(std::move(static_cast<Carrier<T>*>(block_)->value));
    }
    Unref();
    return out;
  }

 private:
  // `bytes` is the payload (a plain block) or the carried value's cached
  // encoding, valid while `encoded` is set.
  struct Block {
    virtual ~Block() = default;
    // Identifies the carried type: the address of a per-type tag, or nullptr
    // for a plain block.
    virtual const void* type() const { return nullptr; }
    // Fills `bytes` from the carried value.
    virtual void Encode() {}

    std::vector<uint8_t> bytes;
    uint32_t refs = 1;
    bool encoded = true;
  };

  template <WireCarried T>
  struct Carrier final : Block {
    static constexpr char kTag = 0;
    static constexpr const void* kType = &kTag;

    explicit Carrier(T v) : value(std::move(v)) { encoded = false; }
    const void* type() const override { return kType; }
    void Encode() override { bytes = WireCodec<T>::Encode(value); }

    T value;
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
