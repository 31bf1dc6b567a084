#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>

#include "src/base/rng.h"

namespace neve::fuzz {
namespace {

constexpr uint64_t kBatch = 32;
constexpr size_t kMaxInputLen = 256;

uint64_t BytesHash(const std::vector<uint8_t>& bytes) {
  Digest d;
  for (uint8_t b : bytes) {
    d.Mix(b);
  }
  return d.value();
}

// The oracle identifier is the failure string up to the first ':'.
std::string OracleOf(const std::string& failure) {
  return failure.substr(0, failure.find(':'));
}

std::vector<uint8_t> FreshInput(Rng& rng) {
  std::vector<uint8_t> bytes(8 + rng.NextBelow(120));
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return bytes;
}

void MutateOnce(Rng& rng, const std::vector<std::vector<uint8_t>>& corpus,
                std::vector<uint8_t>* b) {
  if (b->empty()) {
    *b = FreshInput(rng);
    return;
  }
  switch (rng.NextBelow(8)) {
    case 0: {  // flip a bit
      size_t i = rng.NextBelow(b->size());
      (*b)[i] ^= uint8_t{1} << rng.NextBelow(8);
      break;
    }
    case 1:  // overwrite a byte
      (*b)[rng.NextBelow(b->size())] = static_cast<uint8_t>(rng.Next());
      break;
    case 2: {  // overwrite a 16-bit field
      size_t i = rng.NextBelow(b->size());
      (*b)[i] = static_cast<uint8_t>(rng.Next());
      if (i + 1 < b->size()) {
        (*b)[i + 1] = static_cast<uint8_t>(rng.Next());
      }
      break;
    }
    case 3: {  // insert a few bytes
      size_t i = rng.NextBelow(b->size() + 1);
      size_t n = 1 + rng.NextBelow(8);
      std::vector<uint8_t> ins(n);
      for (uint8_t& c : ins) {
        c = static_cast<uint8_t>(rng.Next());
      }
      b->insert(b->begin() + i, ins.begin(), ins.end());
      break;
    }
    case 4: {  // erase a range
      size_t i = rng.NextBelow(b->size());
      size_t n = std::min(b->size() - i, 1 + rng.NextBelow(8));
      b->erase(b->begin() + i, b->begin() + i + n);
      break;
    }
    case 5: {  // duplicate a chunk (op-sequence stutter)
      size_t i = rng.NextBelow(b->size());
      size_t n = std::min(b->size() - i, 1 + rng.NextBelow(16));
      std::vector<uint8_t> chunk(b->begin() + i, b->begin() + i + n);
      b->insert(b->begin() + i, chunk.begin(), chunk.end());
      break;
    }
    case 6: {  // splice: replace the tail with another corpus entry's tail
      const std::vector<uint8_t>& other =
          corpus[rng.NextBelow(corpus.size())];
      if (!other.empty()) {
        size_t cut = rng.NextBelow(b->size());
        size_t ocut = rng.NextBelow(other.size());
        b->resize(cut);
        b->insert(b->end(), other.begin() + ocut, other.end());
      }
      break;
    }
    default: {  // append noise (extends the program)
      size_t n = 1 + rng.NextBelow(16);
      for (size_t k = 0; k < n; ++k) {
        b->push_back(static_cast<uint8_t>(rng.Next()));
      }
      break;
    }
  }
  if (b->size() > kMaxInputLen) {
    b->resize(kMaxInputLen);
  }
}

// Where the next deletion is tried: `chunk` bytes at `pos`.
struct ShrinkCursor {
  size_t chunk = 1;
  size_t pos = 0;
};

// Moves `c` to the first deletion that fits in `size` bytes at or after it,
// halving the chunk (from position 0) as each size runs out. False once
// the one-byte chunk has run out.
bool Fit(ShrinkCursor* c, size_t size) {
  while (c->pos + c->chunk > size) {
    if (c->chunk == 1) {
      return false;
    }
    c->chunk /= 2;
    c->pos = 0;
  }
  return true;
}

}  // namespace

std::vector<uint8_t> Fuzzer::GenerateInput(uint64_t case_index) const {
  Rng rng(DigestOf(opts_.seed, case_index));
  if (corpus_.empty() || rng.NextBelow(5) == 0) {
    return FreshInput(rng);
  }
  std::vector<uint8_t> bytes = corpus_[rng.NextBelow(corpus_.size())];
  uint64_t n = 1 + rng.NextBelow(4);
  for (uint64_t i = 0; i < n; ++i) {
    MutateOnce(rng, corpus_, &bytes);
  }
  if (bytes.empty()) {
    bytes = FreshInput(rng);
  }
  return bytes;
}

std::vector<uint8_t> Shrink(std::vector<uint8_t> bytes,
                            const std::function<bool(const CaseResult&)>& keep,
                            size_t per_round, const CandidateRunner& run,
                            uint64_t* budget, uint64_t* execs,
                            CaseResult* last_kept) {
  ShrinkCursor at{.chunk = std::max<size_t>(bytes.size() / 2, 1)};
  while (bytes.size() > 1 && *budget > 0 && Fit(&at, bytes.size())) {
    std::vector<ShrinkCursor> tried = {at};
    while (tried.size() < std::min<uint64_t>(per_round, *budget)) {
      ShrinkCursor next = tried.back();
      next.pos += next.chunk;
      if (!Fit(&next, bytes.size())) {
        break;
      }
      tried.push_back(next);
    }
    std::vector<std::vector<uint8_t>> cands(tried.size(), bytes);
    for (size_t k = 0; k < tried.size(); ++k) {
      auto first = cands[k].begin() + static_cast<ptrdiff_t>(tried[k].pos);
      cands[k].erase(first, first + static_cast<ptrdiff_t>(tried[k].chunk));
    }
    std::vector<CaseResult> results = run(cands);
    for (size_t k = 0; k < tried.size(); ++k) {
      *execs += results[k].execs;
      --*budget;
      at = tried[k];
      if (keep(results[k])) {
        bytes = std::move(cands[k]);
        if (last_kept != nullptr) {
          *last_kept = std::move(results[k]);
        }
        break;  // the later candidates deleted from the old bytes
      }
      at.pos += at.chunk;
    }
  }
  return bytes;
}

std::vector<uint8_t> Fuzzer::Minimize(
    const std::vector<uint8_t>& bytes,
    const std::function<bool(const CaseResult&)>& keep, uint64_t budget,
    CaseResult* last_kept) {
  // Two candidates per round: 19% of candidates are kept, so the second is
  // usually the one tried next. Three and four per round measured no
  // faster than two on a 4-core host: discarded runs take threads from the
  // kept ones (DESIGN.md 6g).
  const size_t per_round = opts_.threads > 1 ? 2 : 1;
  return Shrink(
      bytes, keep, per_round,
      [&](const std::vector<std::vector<uint8_t>>& cands) {
        return RunCases(cands, opts_.threads);
      },
      &budget, &execs_, last_kept);
}

std::vector<uint8_t> Fuzzer::MinimizeFailure(const std::vector<uint8_t>& bytes,
                                             const std::string& failure) {
  std::string oracle = OracleOf(failure);
  return Minimize(
      bytes,
      [&](const CaseResult& r) { return !r.ok && OracleOf(r.failure) == oracle; },
      opts_.minimize_budget, nullptr);
}

std::vector<uint8_t> Fuzzer::MinimizeForCoverage(
    const std::vector<uint8_t>& bytes, CaseResult* result) {
  // The bits this input would newly set; shrinking must preserve them all.
  std::set<size_t> target;
  for (uint64_t f : result->features) {
    if (!bitmap_.Test(f)) {
      target.insert(CoverageBitmap::BitIndex(f));
    }
  }
  auto covers = [&](const CaseResult& r) {
    if (!r.ok) {
      return false;
    }
    std::set<size_t> got;
    for (uint64_t f : r.features) {
      got.insert(CoverageBitmap::BitIndex(f));
    }
    return std::includes(got.begin(), got.end(), target.begin(), target.end());
  };
  return Minimize(bytes, covers, opts_.minimize_budget / 4, result);
}

std::string Fuzzer::WriteCorpusFile(const char* prefix, uint64_t case_index,
                                    const std::vector<uint8_t>& bytes,
                                    const std::string& comment) {
  std::filesystem::create_directories(opts_.corpus_out);
  char name[80];
  std::snprintf(name, sizeof(name), "%s-%08llu-%016llx.seed", prefix,
                static_cast<unsigned long long>(case_index),
                static_cast<unsigned long long>(BytesHash(bytes)));
  std::string path = opts_.corpus_out + "/" + name;
  WriteSeedFile(path, bytes, comment);
  return path;
}

int Fuzzer::Run(std::ostream& out) {
  out << "[stackfuzz] seed=" << opts_.seed << " runs=" << opts_.runs
      << " corpus=" << (opts_.corpus_out.empty() ? "-" : opts_.corpus_out)
      << "\n";
  bool stop = false;
  uint64_t batches = 0;
  for (uint64_t base = 0; base < opts_.runs && !stop; base += kBatch) {
    uint64_t n = std::min(kBatch, opts_.runs - base);
    // Inputs derive from the corpus as frozen here; RunCases is pure, so
    // its fan-out cannot observe merge order. It runs every variant of the
    // batch in one ParallelFor, as the merge path's shrink rounds run the
    // variants of their candidates; neither nests a ParallelFor.
    std::vector<std::vector<uint8_t>> inputs(n);
    for (uint64_t i = 0; i < n; ++i) {
      inputs[i] = GenerateInput(base + i);
    }
    std::vector<CaseResult> results = RunCases(inputs, opts_.threads);
    for (uint64_t i = 0; i < n; ++i) {
      execs_ += results[i].execs;
      ++cases_run_;
      if (!results[i].ok) {
        FailureRecord fr;
        fr.case_index = base + i;
        fr.failure = results[i].failure;
        fr.bytes = MinimizeFailure(inputs[i], results[i].failure);
        if (!opts_.corpus_out.empty()) {
          fr.file = WriteCorpusFile("fail", base + i, fr.bytes, fr.failure);
        }
        failures_.push_back(std::move(fr));
        if (!opts_.keep_going) {
          stop = true;
        }
        continue;
      }
      if (bitmap_.CountNew(results[i].features) == 0) {
        continue;
      }
      std::vector<uint8_t> min = MinimizeForCoverage(inputs[i], &results[i]);
      bitmap_.Merge(results[i].features);
      corpus_.push_back(min);
      if (!opts_.corpus_out.empty()) {
        WriteCorpusFile("cov", base + i, min, "");
      }
    }
    if (++batches % 8 == 0) {
      out << "[stackfuzz] cases=" << cases_run_ << " execs=" << execs_
          << " corpus=" << corpus_.size() << " bits=" << bitmap_.bits_set()
          << " failures=" << failures_.size() << "\n";
    }
  }
  out << "[stackfuzz] done: cases=" << cases_run_ << " execs=" << execs_
      << " corpus=" << corpus_.size() << " bits=" << bitmap_.bits_set()
      << " failures=" << failures_.size() << "\n";
  for (const FailureRecord& fr : failures_) {
    out << "[stackfuzz] FAILURE case " << fr.case_index << " ("
        << fr.bytes.size() << " bytes";
    if (!fr.file.empty()) {
      out << ", " << fr.file;
    }
    out << "):\n  " << fr.failure << "\n";
  }
  return static_cast<int>(failures_.size());
}

void WriteSeedFile(const std::string& path, const std::vector<uint8_t>& bytes,
                   const std::string& comment) {
  std::ofstream f(path, std::ios::trunc);
  f << "# stackfuzz seed v1\n";
  if (!comment.empty()) {
    std::string line;
    for (char c : comment) {
      if (c == '\n') {
        f << "# " << line << "\n";
        line.clear();
      } else {
        line += c;
      }
    }
    if (!line.empty()) {
      f << "# " << line << "\n";
    }
  }
  static const char* kHex = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex += kHex[b >> 4];
    hex += kHex[b & 0xF];
    if (hex.size() >= 64) {
      f << hex << "\n";
      hex.clear();
    }
  }
  if (!hex.empty()) {
    f << hex << "\n";
  }
}

std::optional<std::vector<uint8_t>> LoadSeedFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    return std::nullopt;
  }
  std::vector<uint8_t> bytes;
  std::string line;
  int nibble = -1;
  while (std::getline(f, line)) {
    if (!line.empty() && line[0] == '#') {
      continue;
    }
    for (char c : line) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        continue;
      }
      int v;
      if (c >= '0' && c <= '9') {
        v = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        v = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        v = c - 'A' + 10;
      } else {
        return std::nullopt;
      }
      if (nibble < 0) {
        nibble = v;
      } else {
        bytes.push_back(static_cast<uint8_t>((nibble << 4) | v));
        nibble = -1;
      }
    }
  }
  if (nibble >= 0) {
    return std::nullopt;
  }
  return bytes;
}

bool ReplaySeedFile(const std::string& path, std::ostream& out,
                    unsigned threads) {
  std::optional<std::vector<uint8_t>> bytes = LoadSeedFile(path);
  if (!bytes.has_value()) {
    out << path << ": UNREADABLE (not a stackfuzz seed file)\n";
    return false;
  }
  CaseResult r = RunCase(*bytes, threads);
  if (r.ok) {
    out << path << ": OK (" << r.execs << " stack runs)\n";
    return true;
  }
  out << path << ": FAIL\n  " << r.failure << "\n";
  return false;
}

}  // namespace neve::fuzz
