#include "util/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/rng.h"

namespace ss {
namespace {

constexpr std::uint64_t kSnapshotMagic =
    0x53534e41'50313000ULL;  // "SSNAP10\0"
// magic + kind + fingerprint + payload size.
constexpr std::size_t kSnapshotHeaderBytes = 32;
// Header + trailing checksum.
constexpr std::size_t kSnapshotMinBytes = kSnapshotHeaderBytes + 8;

std::uint64_t le64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void BinWriter::u64(std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buf_.append(bytes, 8);
}

void BinWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void BinWriter::str(const std::string& s) {
  u64(s.size());
  buf_.append(s);
}

void BinReader::require(std::size_t n) const {
  // n comes from untrusted length prefixes; guard the addition itself.
  if (n > bytes_.size() || pos_ > bytes_.size() - n) {
    throw std::runtime_error("checkpoint: truncated payload at byte " +
                             std::to_string(pos_));
  }
}

std::uint8_t BinReader::u8() {
  require(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint64_t BinReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double BinReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<double> BinReader::vec_f64() {
  std::vector<double> v(count(8));
  for (double& x : v) x = f64();
  return v;
}

std::string BinReader::str() {
  std::uint64_t n = u64();
  require(n);
  std::string s = bytes_.substr(pos_, n);
  pos_ += n;
  return s;
}

std::size_t BinReader::count(std::size_t min_element_bytes) {
  std::uint64_t n = u64();
  std::size_t left = bytes_.size() - pos_;
  if (min_element_bytes > 0 && n > left / min_element_bytes) {
    throw std::runtime_error("checkpoint: count " + std::to_string(n) +
                             " overruns the payload at byte " +
                             std::to_string(pos_));
  }
  return static_cast<std::size_t>(n);
}

void atomic_write_file(const std::string& path,
                       const std::string& bytes) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot write " + tmp);
    }
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      throw std::runtime_error("checkpoint: short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: rename failed for " + path +
                             ": " + ec.message());
  }
}

std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void write_snapshot(const std::string& path, std::uint64_t kind,
                    std::uint64_t fingerprint,
                    const std::string& payload) {
  BinWriter writer;
  writer.u64(kSnapshotMagic);
  writer.u64(kind);
  writer.u64(fingerprint);
  writer.str(payload);  // u64 length prefix + bytes
  std::uint64_t digest =
      fnv1a64(writer.bytes().data(), writer.bytes().size());
  writer.u64(digest);
  atomic_write_file(path, writer.bytes());
}

Expected<std::string> read_snapshot(const std::string& path,
                                    std::uint64_t kind,
                                    std::uint64_t fingerprint) {
  auto corrupt = [&](std::size_t at, const std::string& why) {
    return Error{ErrorCode::kCheckpointCorrupt,
                 path + ": checkpoint corrupt at byte " +
                     std::to_string(at) + ": " + why};
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{ErrorCode::kIoError,
                 path + ": cannot read checkpoint file"};
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < kSnapshotMinBytes) {
    return corrupt(bytes.size(),
                   "truncated header (" + std::to_string(bytes.size()) +
                       " bytes, need at least " +
                       std::to_string(kSnapshotMinBytes) + ")");
  }
  if (le64_at(bytes, 0) != kSnapshotMagic) {
    return corrupt(0, "bad magic (not a snapshot file)");
  }
  if (le64_at(bytes, 8) != kind) {
    return corrupt(8, "kind mismatch (expected " + std::to_string(kind) +
                          ", found " + std::to_string(le64_at(bytes, 8)) +
                          ")");
  }
  if (le64_at(bytes, 16) != fingerprint) {
    return corrupt(16, "fingerprint mismatch (stale or foreign run)");
  }
  std::uint64_t declared = le64_at(bytes, 24);
  std::uint64_t present = bytes.size() - kSnapshotMinBytes;
  if (declared != present) {
    return corrupt(kSnapshotHeaderBytes,
                   "payload declares " + std::to_string(declared) +
                       " bytes, " + std::to_string(present) +
                       " present");
  }
  std::size_t digest_at = bytes.size() - 8;
  std::uint64_t stored = le64_at(bytes, digest_at);
  std::uint64_t actual = fnv1a64(bytes.data(), digest_at);
  if (stored != actual) {
    return corrupt(digest_at, "checksum mismatch");
  }
  return bytes.substr(kSnapshotHeaderBytes, declared);
}

std::string read_snapshot_or_throw(const std::string& path,
                                   std::uint64_t kind,
                                   std::uint64_t fingerprint) {
  Expected<std::string> r = read_snapshot(path, kind, fingerprint);
  if (!r.ok()) throw TaxonomyError(r.error().code, r.error().message);
  return std::move(r).value();
}

CheckpointStore::CheckpointStore(std::string path, std::uint64_t kind,
                                 std::uint64_t fingerprint,
                                 std::uint64_t units)
    : path_(std::move(path)),
      kind_(kind),
      fingerprint_(fingerprint),
      units_(units) {
  MutexLock lock(mu_);
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec)) return;
  std::string why;
  if (!load_locked(&why)) {
    recovered_corrupt_ = true;
    recovered_error_ = Error{ErrorCode::kCheckpointCorrupt, why};
    payloads_.clear();
  }
}

bool CheckpointStore::load_locked(std::string* why) {
  Expected<std::string> sealed = read_snapshot(path_, kind_, fingerprint_);
  if (!sealed.ok()) {
    *why = sealed.error().message;
    return false;
  }
  const std::string& bytes = sealed.value();
  BinReader reader(bytes);
  // Located in the file: the payload starts after the snapshot header.
  auto at = [&](const std::string& what) {
    *why = path_ + ": checkpoint corrupt at byte " +
           std::to_string(kSnapshotHeaderBytes + reader.position()) + ": " +
           what;
    return false;
  };
  try {
    if (reader.u64() != units_) return at("unit-count mismatch");
    std::uint64_t records = reader.u64();
    if (records > units_) return at("record count exceeds units");
    for (std::uint64_t r = 0; r < records; ++r) {
      std::uint64_t unit = reader.u64();
      if (unit >= units_) return at("unit index out of range");
      payloads_[unit] = reader.str();
    }
  } catch (const std::exception& e) {
    return at(e.what());
  }
  if (!reader.done()) return at("trailing bytes");
  return true;
}

bool CheckpointStore::has(std::uint64_t unit) const {
  MutexLock lock(mu_);
  return payloads_.count(unit) != 0;
}

const std::string& CheckpointStore::payload(std::uint64_t unit) const {
  MutexLock lock(mu_);
  return payloads_.at(unit);
}

void CheckpointStore::commit(std::uint64_t unit, std::string payload) {
  MutexLock lock(mu_);
  payloads_[unit] = std::move(payload);
  BinWriter writer;
  writer.u64(units_);
  writer.u64(payloads_.size());
  for (const auto& [u, p] : payloads_) {
    writer.u64(u);
    writer.str(p);
  }
  try {
    write_snapshot(path_, kind_, fingerprint_, writer.bytes());
  } catch (const std::exception&) {
    // Durability lost for this commit; the run itself must continue.
  }
}

std::size_t CheckpointStore::completed() const {
  MutexLock lock(mu_);
  return payloads_.size();
}

void CheckpointStore::remove_file() {
  MutexLock lock(mu_);
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

std::uint64_t fingerprint_combine(std::uint64_t acc,
                                  std::uint64_t value) {
  return splitmix64(acc ^ (value + 0x9e3779b97f4a7c15ULL));
}

std::uint64_t fingerprint_combine(std::uint64_t acc, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return fingerprint_combine(acc, bits);
}

}  // namespace ss
