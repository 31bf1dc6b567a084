// Snapshot wire format: versioned, byte-deterministic, self-checking.
//
// A snapshot stream is
//
//   "NEVESNAP" (8 bytes)  u32 version  u32 section_count
//   section*:  u32 tag  u32 reserved  u64 payload_len  payload  u64 digest
//
// where `digest` covers the payload bytes with the same mixing the
// architectural digests use (base/digest.h).
//
// Writer and Reader have the same field members, so one
// `template <class Ar> void Visit(Ar&, T&)` per image type (snapshot.cc)
// names each field once, in wire order, for both directions:
//
//   U8 / U32 / I32 (field)        fixed-width integer, converted from and to
//                                 the field's own type (bool, enum, int, ...)
//   U64, Str, Bytes               u64; u64 length + bytes; raw bytes
//   Vec(v, min_elem_bytes, fn)    u64 count, then fn(element) for each one;
//                                 a std::array (a register file, a fixed
//                                 table) travels the same way, and Decode
//                                 requires its exact count
//   Section(tag, fn)              one digest-protected section around fn()
//
// The Reader bounds-checks every read and keeps its first error; every read
// after it is skipped and yields zero, so a Visit runs to its end without
// error plumbing and status() reports the first failure: a truncated stream
// as OutOfRange, a corrupted one as InvalidArgument (magic/tag/digest
// mismatch), never a crash. A count that fails to read, or that exceeds the
// remaining payload divided by min_elem_bytes, never reaches resize, so a
// corrupt count cannot exhaust memory. The migration engine leans on that
// contract for its failure-atomic rollback.
//
// Determinism contract: encoding is a pure function of the values written
// and their order -- fixed-width little-endian integers, length-prefixed
// byte runs, no padding, no addresses, no iteration over unordered
// containers (callers sort first).

#ifndef NEVE_SRC_SNAP_WIRE_H_
#define NEVE_SRC_SNAP_WIRE_H_

#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/digest.h"
#include "src/base/status.h"

// Early-return plumbing for the Status-returning reader/applier chains.
#ifndef NEVE_RETURN_IF_ERROR
#define NEVE_RETURN_IF_ERROR(expr)          \
  do {                                      \
    ::neve::Status neve_st_ = (expr);       \
    if (!neve_st_.ok()) {                   \
      return neve_st_;                      \
    }                                       \
  } while (false)
#endif

namespace neve {
namespace snap {

inline constexpr char kSnapMagic[8] = {'N', 'E', 'V', 'E',
                                       'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapVersion = 1;

// Section tags (fourcc-style).
inline constexpr uint32_t kSecMeta = 0x4154454D;   // 'META'
inline constexpr uint32_t kSecCpus = 0x53555043;   // 'CPUS'
inline constexpr uint32_t kSecMem = 0x504D454D;    // 'MEMP'
inline constexpr uint32_t kSecAttr = 0x52545441;   // 'ATTR'
inline constexpr uint32_t kSecFault = 0x544C4146;  // 'FALT'
inline constexpr uint32_t kSecGic = 0x43434947;    // 'GICC'
inline constexpr uint32_t kSecHost = 0x54534F48;   // 'HOST'
inline constexpr uint32_t kSecGuest = 0x4D564B47;  // 'GKVM'
inline constexpr uint32_t kSecDevs = 0x53564544;   // 'DEVS'

// A field type that may travel in an N-byte wire integer: any enum, or an
// integer (bool included) no wider than N bytes.
template <class T, size_t N>
concept WireInt =
    std::is_enum_v<T> || (std::integral<T> && sizeof(T) <= N);

class Writer {
 public:
  Writer() : buf_(std::begin(kSnapMagic), std::end(kSnapMagic)) {
    U32(kSnapVersion);
    count_at_ = buf_.size();
    U32(0);  // section count, patched by Finish()
  }

  template <WireInt<1> T>
  void U8(T v) {
    AppendLe(static_cast<uint8_t>(v), 1);
  }
  template <WireInt<4> T>
  void U32(T v) {
    AppendLe(static_cast<uint32_t>(v), 4);
  }
  template <WireInt<4> T>
  void I32(T v) {
    AppendLe(static_cast<uint32_t>(static_cast<int32_t>(v)), 4);
  }
  void U64(uint64_t v) { AppendLe(v, 8); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void Bytes(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }

  // min_elem_bytes bounds the count on decode; the writer has no use for it.
  template <class V, class Fn>
  void Vec(V& v, uint64_t /*min_elem_bytes*/, Fn fn) {
    U64(v.size());
    for (auto& e : v) {
      fn(e);
    }
  }

  template <class Fn>
  void Section(uint32_t tag, Fn fn) {
    U32(tag);
    U32(0);  // reserved
    const size_t len_at = buf_.size();
    U64(0);  // payload length, patched below
    const size_t payload_at = buf_.size();
    fn();
    const uint64_t len = buf_.size() - payload_at;
    Patch(len_at, len, 8);
    U64(PayloadDigest(buf_.data() + payload_at, len));
    ++sections_;
  }

  std::vector<uint8_t> Finish() {
    Patch(count_at_, sections_, 4);
    return std::move(buf_);
  }

 private:
  void AppendLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Patch(size_t at, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  static uint64_t PayloadDigest(const uint8_t* p, uint64_t n) {
    Digest d;
    d.Mix(n);
    uint64_t word = 0;
    uint64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::memcpy(&word, p + i, 8);
      d.Mix(word);
    }
    word = 0;
    for (; i < n; ++i) {
      word = (word << 8) | p[i];
    }
    d.Mix(word);
    return d.value();
  }

  std::vector<uint8_t> buf_;
  size_t count_at_ = 0;
  uint32_t sections_ = 0;

  friend class Reader;  // shares PayloadDigest
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  // Consumes and validates the stream header; returns the section count.
  uint32_t Header() {
    uint8_t magic[sizeof(kSnapMagic)] = {};
    Bytes(magic, sizeof(magic));
    if (ok() && std::memcmp(magic, kSnapMagic, sizeof(magic)) != 0) {
      Fail(Status::InvalidArgument("snapshot: bad magic"));
    }
    uint32_t version = 0;
    U32(version);
    if (ok() && version != kSnapVersion) {
      Fail(Status::InvalidArgument("snapshot: unsupported version " +
                                   std::to_string(version)));
    }
    uint32_t sections = 0;
    U32(sections);
    return sections;
  }

  template <WireInt<1> T>
  void U8(T& v) {
    v = static_cast<T>(ReadLe(1));
  }
  template <WireInt<4> T>
  void U32(T& v) {
    v = static_cast<T>(ReadLe(4));
  }
  template <WireInt<4> T>
  void I32(T& v) {
    v = static_cast<T>(static_cast<int32_t>(static_cast<uint32_t>(ReadLe(4))));
  }
  void U64(uint64_t& v) { v = ReadLe(8); }
  void Str(std::string& s) {
    const uint64_t len = ReadLe(8);
    if (ok() && len > Remaining()) {
      Fail(Status::OutOfRange("snapshot: truncated string"));
    }
    if (ok()) {
      s.assign(reinterpret_cast<const char*>(p_), len);
      p_ += len;
    }
  }
  void Bytes(uint8_t* p, size_t n) {
    const uint8_t* at = p_;
    if (Take(n)) {
      std::memcpy(p, at, n);
    }
  }

  template <class V, class Fn>
  void Vec(V& v, uint64_t min_elem_bytes, Fn fn) {
    const uint64_t n = ReadLe(8);
    if (ok() && min_elem_bytes != 0 && n > Remaining() / min_elem_bytes) {
      Fail(Status::OutOfRange("snapshot: element count exceeds payload"));
    }
    if (!ok()) {
      return;
    }
    v.resize(n);
    for (auto& e : v) {
      fn(e);
    }
  }
  // A fixed-size field: the same bytes as a counted vector, but any count
  // other than N is corruption.
  template <class T, size_t N, class Fn>
  void Vec(std::array<T, N>& v, uint64_t /*min_elem_bytes*/, Fn fn) {
    const uint64_t n = ReadLe(8);
    if (ok() && n != N) {
      Fail(Status::InvalidArgument("snapshot: wrong count for a fixed-size "
                                   "field"));
    }
    if (!ok()) {
      return;
    }
    for (auto& e : v) {
      fn(e);
    }
  }

  // Checks the section header and the payload digest, scopes fn's reads to
  // the payload, and requires fn to consume all of it.
  template <class Fn>
  void Section(uint32_t expected_tag, Fn fn) {
    uint32_t tag = 0;
    uint32_t reserved = 0;
    U32(tag);
    U32(reserved);
    if (ok() && tag != expected_tag) {
      Fail(Status::InvalidArgument("snapshot: unexpected section tag"));
    }
    const uint64_t len = ReadLe(8);
    const uint64_t left = static_cast<uint64_t>(end_ - p_);
    if (ok() && (left < 8 || len > left - 8)) {
      Fail(Status::OutOfRange("snapshot: truncated section payload"));
    }
    if (!ok()) {
      return;
    }
    const uint8_t* payload_end = p_ + len;
    uint64_t want = 0;
    for (int i = 0; i < 8; ++i) {
      want |= static_cast<uint64_t>(payload_end[i]) << (8 * i);
    }
    if (want != Writer::PayloadDigest(p_, len)) {
      Fail(Status::InvalidArgument("snapshot: section digest mismatch"));
      return;
    }
    sec_end_ = payload_end;
    fn();
    if (ok() && p_ != sec_end_) {
      Fail(Status::InvalidArgument("snapshot: section payload not consumed"));
    }
    sec_end_ = nullptr;
    p_ = payload_end + 8;  // digest, already verified
  }

  bool ok() const { return status_.ok(); }
  // The first error, or Ok.
  const Status& status() const { return status_; }
  bool AtEnd() const { return p_ == end_; }

 private:
  void Fail(Status st) {
    if (ok()) {
      status_ = std::move(st);
    }
  }
  uint64_t Remaining() const {
    const uint8_t* lim = sec_end_ != nullptr ? sec_end_ : end_;
    return static_cast<uint64_t>(lim - p_);
  }
  // Consumes n bytes; false (with the error kept) when they are not there.
  bool Take(size_t n) {
    if (ok() && Remaining() < n) {
      Fail(Status::OutOfRange("snapshot: truncated stream"));
    }
    if (!ok()) {
      return false;
    }
    p_ += n;
    return true;
  }
  // A little-endian integer of `bytes` bytes, or 0 once an error is kept.
  uint64_t ReadLe(int bytes) {
    const uint8_t* at = p_;
    if (!Take(static_cast<size_t>(bytes))) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(at[i]) << (8 * i);
    }
    return v;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  const uint8_t* sec_end_ = nullptr;  // payload limit while a section is open
  Status status_;
};

}  // namespace snap
}  // namespace neve

#endif  // NEVE_SRC_SNAP_WIRE_H_
