// Snapshot wire format: versioned, byte-deterministic, self-checking.
//
// A snapshot stream is
//
//   "NEVESNAP" (8 bytes)  u32 version  u32 section_count
//   section*:  u32 tag  u32 reserved  u64 payload_len  payload  u64 digest
//
// where `digest` covers the payload bytes with the same mixing the
// architectural digests use (base/digest.h). Every reader operation is
// bounds-checked and Status-returning: a truncated stream surfaces as
// OutOfRange, a corrupted one as InvalidArgument (magic/tag/digest
// mismatch), never as a crash or a silently-wrong restore. The migration
// engine leans on exactly that contract for its failure-atomic rollback.
//
// Determinism contract: encoding is a pure function of the values written
// and their order -- fixed-width little-endian integers, length-prefixed
// byte runs, no padding, no addresses, no iteration over unordered
// containers (callers sort first).

#ifndef NEVE_SRC_SNAP_WIRE_H_
#define NEVE_SRC_SNAP_WIRE_H_

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
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

class Writer {
 public:
  Writer() : buf_(std::begin(kSnapMagic), std::end(kSnapMagic)) {
    PutU32(kSnapVersion);
    count_at_ = buf_.size();
    PutU32(0);  // section count, patched by Finish()
  }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { PutU32(v); }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void Bytes(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  void BeginSection(uint32_t tag) {
    NEVE_CHECK_MSG(payload_at_ == 0, "nested snapshot section");
    PutU32(tag);
    PutU32(0);  // reserved
    len_at_ = buf_.size();
    U64(0);  // payload length, patched by EndSection()
    payload_at_ = buf_.size();
    ++sections_;
  }

  void EndSection() {
    NEVE_CHECK_MSG(payload_at_ != 0, "EndSection without BeginSection");
    const uint64_t len = buf_.size() - payload_at_;
    PatchU64(len_at_, len);
    Digest d;
    d.Mix(len);
    MixBytes(&d, buf_.data() + payload_at_, len);
    payload_at_ = 0;
    U64(d.value());
  }

  std::vector<uint8_t> Finish() {
    NEVE_CHECK_MSG(payload_at_ == 0, "Finish inside a section");
    PatchU32(count_at_, sections_);
    return std::move(buf_);
  }

 private:
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void PatchU32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  void PatchU64(size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  static void MixBytes(Digest* d, const uint8_t* p, uint64_t n) {
    uint64_t word = 0;
    uint64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::memcpy(&word, p + i, 8);
      d->Mix(word);
    }
    word = 0;
    for (; i < n; ++i) {
      word = (word << 8) | p[i];
    }
    d->Mix(word);
  }

  std::vector<uint8_t> buf_;
  size_t count_at_ = 0;
  size_t len_at_ = 0;
  size_t payload_at_ = 0;  // nonzero while a section is open
  uint32_t sections_ = 0;

  friend class Reader;  // shares MixBytes
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  // Consumes and validates the stream header; fills the section count.
  Status Header(uint32_t* section_count) {
    uint8_t magic[8];
    NEVE_RETURN_IF_ERROR(Raw(magic, sizeof(magic)));
    if (std::memcmp(magic, kSnapMagic, sizeof(magic)) != 0) {
      return Status::InvalidArgument("snapshot: bad magic");
    }
    uint32_t version = 0;
    NEVE_RETURN_IF_ERROR(U32(&version));
    if (version != kSnapVersion) {
      return Status::InvalidArgument("snapshot: unsupported version " +
                                     std::to_string(version));
    }
    return U32(section_count);
  }

  // Consumes a section header, verifies the tag and the payload digest, and
  // scopes subsequent reads to the payload. CloseSection() must follow.
  Status OpenSection(uint32_t expected_tag) {
    if (sec_end_ != nullptr) {
      return Status::Internal("snapshot: nested section open");
    }
    uint32_t tag = 0;
    uint32_t reserved = 0;
    NEVE_RETURN_IF_ERROR(U32(&tag));
    NEVE_RETURN_IF_ERROR(U32(&reserved));
    if (tag != expected_tag) {
      return Status::InvalidArgument("snapshot: unexpected section tag");
    }
    uint64_t len = 0;
    NEVE_RETURN_IF_ERROR(U64(&len));
    if (static_cast<uint64_t>(end_ - p_) < len + 8) {
      return Status::OutOfRange("snapshot: truncated section payload");
    }
    Digest d;
    d.Mix(len);
    Writer::MixBytes(&d, p_, len);
    const uint8_t* dp = p_ + len;
    uint64_t want = 0;
    for (int i = 0; i < 8; ++i) {
      want |= static_cast<uint64_t>(dp[i]) << (8 * i);
    }
    if (want != d.value()) {
      return Status::InvalidArgument("snapshot: section digest mismatch");
    }
    sec_end_ = p_ + len;
    return Status::Ok();
  }

  // Verifies the payload was fully consumed and steps past the digest.
  Status CloseSection() {
    if (sec_end_ == nullptr) {
      return Status::Internal("snapshot: CloseSection without open");
    }
    if (p_ != sec_end_) {
      return Status::InvalidArgument("snapshot: section payload not consumed");
    }
    sec_end_ = nullptr;
    p_ += 8;  // digest, already verified
    return Status::Ok();
  }

  Status U8(uint8_t* v) { return Raw(v, 1); }
  Status U32(uint32_t* v) {
    uint8_t b[4];
    NEVE_RETURN_IF_ERROR(Raw(b, 4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(b[i]) << (8 * i);
    }
    return Status::Ok();
  }
  Status U64(uint64_t* v) {
    uint8_t b[8];
    NEVE_RETURN_IF_ERROR(Raw(b, 8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(b[i]) << (8 * i);
    }
    return Status::Ok();
  }
  Status I32(int32_t* v) {
    uint32_t u = 0;
    NEVE_RETURN_IF_ERROR(U32(&u));
    *v = static_cast<int32_t>(u);
    return Status::Ok();
  }
  Status Bytes(uint8_t* p, size_t n) { return Raw(p, n); }
  Status Str(std::string* s) {
    uint64_t len = 0;
    NEVE_RETURN_IF_ERROR(U64(&len));
    if (len > Remaining()) {
      return Status::OutOfRange("snapshot: truncated string");
    }
    s->assign(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    return Status::Ok();
  }
  // A length prefix about to drive a loop of >= `min_elem_bytes` reads; bound
  // it by the remaining payload so a corrupt count cannot OOM the reader.
  Status Count(uint64_t* n, uint64_t min_elem_bytes) {
    NEVE_RETURN_IF_ERROR(U64(n));
    if (min_elem_bytes != 0 && *n > Remaining() / min_elem_bytes) {
      return Status::OutOfRange("snapshot: element count exceeds payload");
    }
    return Status::Ok();
  }

  bool AtEnd() const { return p_ == end_; }

 private:
  uint64_t Remaining() const {
    const uint8_t* lim = sec_end_ != nullptr ? sec_end_ : end_;
    return static_cast<uint64_t>(lim - p_);
  }
  Status Raw(uint8_t* out, size_t n) {
    if (Remaining() < n) {
      return Status::OutOfRange("snapshot: truncated stream");
    }
    std::memcpy(out, p_, n);
    p_ += n;
    return Status::Ok();
  }

  const uint8_t* p_;
  const uint8_t* end_;
  const uint8_t* sec_end_ = nullptr;  // payload limit while a section is open
};

}  // namespace snap
}  // namespace neve

#endif  // NEVE_SRC_SNAP_WIRE_H_
