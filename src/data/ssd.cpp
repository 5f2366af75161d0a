#include "data/ssd.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/checkpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define SS_SSD_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SS_SSD_HAVE_MMAP 0
#endif

namespace ss {
namespace {

constexpr std::size_t kHeaderWords = 9;  // fixed u64 fields before table

std::size_t align8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

Error io_error(const std::string& path, const std::string& what) {
  return {ErrorCode::kIoError, path + ": " + what};
}

Error corrupt(const std::string& path, const std::string& what,
              std::size_t byte) {
  return {ErrorCode::kCheckpointCorrupt,
          path + ": " + what + " at byte " + std::to_string(byte)};
}

Error csr_error(const std::string& path, const std::string& what) {
  return {ErrorCode::kIndexOutOfRange, path + ": " + what};
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Identity stamp: name + shape. Deliberately independent of the claim
// bytes (the payload digest covers those) so re-generations of the
// same logical dataset keep one id.
std::uint64_t ssd_fingerprint(const std::string& name, std::uint64_t n,
                              std::uint64_t m, std::uint64_t claims,
                              std::uint64_t exposed) {
  std::uint64_t fp = fnv1a64(name.data(), name.size());
  fp = fingerprint_combine(fp, n);
  fp = fingerprint_combine(fp, m);
  fp = fingerprint_combine(fp, claims);
  fp = fingerprint_combine(fp, exposed);
  return fp;
}

// One read-only file image: mmap where available, a heap copy
// otherwise. The reader never writes, so MAP_PRIVATE read-only is
// safe against concurrent writers only in the usual rename-commit
// sense (SsdWriter commits atomically).
struct FileImage {
  const char* base = nullptr;
  std::size_t size = 0;
  bool mapped = false;

  static Expected<FileImage> load(const std::string& path) {
    FileImage img;
#if SS_SSD_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return io_error(path, "cannot open");
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return io_error(path, "cannot stat");
    }
    img.size = static_cast<std::size_t>(st.st_size);
    if (img.size == 0) {
      ::close(fd);
      return corrupt(path, "empty file", 0);
    }
    void* p = ::mmap(nullptr, img.size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) return io_error(path, "mmap failed");
    img.base = static_cast<const char*>(p);
    img.mapped = true;
#else
    std::ifstream in(path, std::ios::binary);
    if (!in) return io_error(path, "cannot open");
    in.seekg(0, std::ios::end);
    img.size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    char* buf = new char[img.size > 0 ? img.size : 1];
    in.read(buf, static_cast<std::streamsize>(img.size));
    if (!in) {
      delete[] buf;
      return io_error(path, "short read");
    }
    img.base = buf;
#endif
    return img;
  }

  void release() {
    if (base == nullptr) return;
#if SS_SSD_HAVE_MMAP
    if (mapped) {
      ::munmap(const_cast<char*>(base), size);
    }
#else
    delete[] base;
#endif
    base = nullptr;
    size = 0;
  }
};

struct SectionEntry {
  std::uint64_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

}  // namespace

// --- SsdView ---------------------------------------------------------

SsdView& SsdView::operator=(SsdView&& other) noexcept {
  if (this != &other) {
    unmap();
    base_ = other.base_;
    map_size_ = other.map_size_;
    mapped_ = other.mapped_;
    n_ = other.n_;
    m_ = other.m_;
    claims_ = other.claims_;
    exposed_ = other.exposed_;
    fingerprint_ = other.fingerprint_;
    payload_digest_ = other.payload_digest_;
    name_ = other.name_;
    truth_ = other.truth_;
    col_claim_off_ = other.col_claim_off_;
    col_claimants_ = other.col_claimants_;
    col_claim_times_ = other.col_claim_times_;
    col_exp_off_ = other.col_exp_off_;
    col_exposed_ = other.col_exposed_;
    row_claim_off_ = other.row_claim_off_;
    row_claims_ = other.row_claims_;
    row_claim_times_ = other.row_claim_times_;
    row_exp_off_ = other.row_exp_off_;
    row_exposed_ = other.row_exposed_;
    table_ = std::move(other.table_);
    other.base_ = nullptr;
    other.map_size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

SsdView::~SsdView() { unmap(); }

void SsdView::unmap() {
  if (base_ == nullptr) return;
  FileImage img{base_, map_size_, mapped_};
  img.release();
  base_ = nullptr;
  map_size_ = 0;
}

Expected<SsdView> SsdView::open(const std::string& path) {
  Expected<FileImage> img = FileImage::load(path);
  if (!img.ok()) return img.error();
  FileImage image = img.value();
  auto fail = [&](Error e) -> Expected<SsdView> {
    image.release();
    return e;
  };

  const char* base = image.base;
  const std::size_t size = image.size;
  const std::size_t fixed = kHeaderWords * 8;
  if (size < fixed + 8) {
    return fail(corrupt(path, "truncated header", size));
  }
  if (read_u64(base) != kSsdMagic) {
    return fail(corrupt(path, "bad magic", 0));
  }
  if (read_u64(base + 8) != kSsdVersion) {
    return fail(corrupt(path, "unsupported version", 8));
  }
  const std::uint64_t fingerprint = read_u64(base + 16);
  const std::uint64_t n = read_u64(base + 24);
  const std::uint64_t m = read_u64(base + 32);
  const std::uint64_t claims = read_u64(base + 40);
  const std::uint64_t exposed = read_u64(base + 48);
  const std::uint64_t sections = read_u64(base + 56);
  const std::uint64_t payload_digest = read_u64(base + 64);
  if (sections != kSsdSectionCount) {
    return fail(corrupt(path, "bad section count", 56));
  }
  const std::size_t table_bytes = static_cast<std::size_t>(sections) * 24;
  const std::size_t digest_at = fixed + table_bytes;
  if (size < digest_at + 8) {
    return fail(corrupt(path, "truncated section table", size));
  }
  const std::uint64_t want = read_u64(base + digest_at);
  const std::uint64_t got = fnv1a64(base, digest_at);
  if (want != got) {
    return fail(corrupt(path, "header checksum mismatch", digest_at));
  }

  // Section table: every id exactly once, 8-aligned, in bounds.
  std::vector<SectionEntry> table(kSsdSectionCount);
  bool seen[kSsdSectionCount + 1] = {};
  for (std::size_t s = 0; s < kSsdSectionCount; ++s) {
    const char* e = base + fixed + s * 24;
    SectionEntry entry{read_u64(e), read_u64(e + 8), read_u64(e + 16)};
    if (entry.id < 1 || entry.id > kSsdSectionCount || seen[entry.id]) {
      return fail(corrupt(path, "bad section table", fixed + s * 24));
    }
    seen[entry.id] = true;
    if ((entry.offset & 7) != 0 || entry.offset > size ||
        entry.size > size - entry.offset) {
      return fail(
          corrupt(path, "section out of bounds", fixed + s * 24 + 8));
    }
    table[entry.id - 1] = entry;
  }

  auto expect_size = [&](SsdSection id, std::uint64_t bytes) {
    return table[static_cast<std::size_t>(id) - 1].size == bytes;
  };
  if (!expect_size(SsdSection::kTruth, m) ||
      !expect_size(SsdSection::kColClaimOff, (m + 1) * 8) ||
      !expect_size(SsdSection::kColClaimants, claims * 4) ||
      !expect_size(SsdSection::kColClaimTimes, claims * 8) ||
      !expect_size(SsdSection::kColExpOff, (m + 1) * 8) ||
      !expect_size(SsdSection::kColExposed, exposed * 4) ||
      !expect_size(SsdSection::kRowClaimOff, (n + 1) * 8) ||
      !expect_size(SsdSection::kRowClaims, claims * 4) ||
      !expect_size(SsdSection::kRowClaimTimes, claims * 8) ||
      !expect_size(SsdSection::kRowExpOff, (n + 1) * 8) ||
      !expect_size(SsdSection::kRowExposed, exposed * 4)) {
    return fail(corrupt(path, "section size mismatch", fixed));
  }

  SsdView view;
  view.base_ = base;
  view.map_size_ = size;
  view.mapped_ = image.mapped;
  view.n_ = static_cast<std::size_t>(n);
  view.m_ = static_cast<std::size_t>(m);
  view.claims_ = static_cast<std::size_t>(claims);
  view.exposed_ = static_cast<std::size_t>(exposed);
  view.fingerprint_ = fingerprint;
  view.payload_digest_ = payload_digest;
  view.table_.reserve(kSsdSectionCount * 2);
  for (const SectionEntry& e : table) {
    view.table_.push_back(e.offset);
    view.table_.push_back(e.size);
  }
  auto span_of = [&](SsdSection id) {
    const SectionEntry& e = table[static_cast<std::size_t>(id) - 1];
    return std::pair<const char*, std::size_t>(base + e.offset, e.size);
  };
  auto [name_p, name_len] = span_of(SsdSection::kName);
  view.name_ = {name_p, name_len};
  auto as_u8 = [&](SsdSection id) {
    auto [p, len] = span_of(id);
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(p), len);
  };
  auto as_u32 = [&](SsdSection id) {
    auto [p, len] = span_of(id);
    return std::span<const std::uint32_t>(
        reinterpret_cast<const std::uint32_t*>(p), len / 4);
  };
  auto as_u64 = [&](SsdSection id) {
    auto [p, len] = span_of(id);
    return std::span<const std::uint64_t>(
        reinterpret_cast<const std::uint64_t*>(p), len / 8);
  };
  auto as_f64 = [&](SsdSection id) {
    auto [p, len] = span_of(id);
    return std::span<const double>(reinterpret_cast<const double*>(p),
                                   len / 8);
  };
  view.truth_ = as_u8(SsdSection::kTruth);
  view.col_claim_off_ = as_u64(SsdSection::kColClaimOff);
  view.col_claimants_ = as_u32(SsdSection::kColClaimants);
  view.col_claim_times_ = as_f64(SsdSection::kColClaimTimes);
  view.col_exp_off_ = as_u64(SsdSection::kColExpOff);
  view.col_exposed_ = as_u32(SsdSection::kColExposed);
  view.row_claim_off_ = as_u64(SsdSection::kRowClaimOff);
  view.row_claims_ = as_u32(SsdSection::kRowClaims);
  view.row_claim_times_ = as_f64(SsdSection::kRowClaimTimes);
  view.row_exp_off_ = as_u64(SsdSection::kRowExpOff);
  view.row_exposed_ = as_u32(SsdSection::kRowExposed);

  // CSR offset sanity (O(n + m); ids are range-checked by consumers as
  // they copy, so a flipped index bit cannot read out of bounds).
  auto check_csr = [&](std::span<const std::uint64_t> off,
                       std::uint64_t total, const char* what) {
    if (off.empty() || off.front() != 0 || off.back() != total) {
      return false;
    }
    for (std::size_t k = 1; k < off.size(); ++k) {
      if (off[k] < off[k - 1]) return false;
    }
    (void)what;
    return true;
  };
  if (!check_csr(view.col_claim_off_, claims, "col claims") ||
      !check_csr(view.col_exp_off_, exposed, "col exposure") ||
      !check_csr(view.row_claim_off_, claims, "row claims") ||
      !check_csr(view.row_exp_off_, exposed, "row exposure")) {
    // The view still owns the mapping; detach before releasing.
    SsdView dead = std::move(view);
    (void)dead;
    return csr_error(path, "CSR offsets not monotonic");
  }
  return view;
}

SsdView SsdView::open_or_throw(const std::string& path) {
  Expected<SsdView> v = open(path);
  if (!v.ok()) {
    throw TaxonomyError(v.error().code, v.error().message);
  }
  return std::move(v).value();
}

bool SsdView::verify_payload(Error* why) const {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t s = 0; s < kSsdSectionCount; ++s) {
    digest = fnv1a64(base_ + table_[2 * s], table_[2 * s + 1], digest);
  }
  if (digest != payload_digest_) {
    if (why != nullptr) {
      *why = {ErrorCode::kCheckpointCorrupt,
              "payload checksum mismatch (stored " +
                  std::to_string(payload_digest_) + ", computed " +
                  std::to_string(digest) + ")"};
    }
    return false;
  }
  return true;
}

Dataset SsdView::materialize() const {
  Dataset dataset;
  dataset.name = name();
  std::vector<Claim> claims;
  claims.reserve(claims_);
  for (std::size_t j = 0; j < m_; ++j) {
    std::span<const std::uint32_t> cs = claimants_of(j);
    std::span<const double> ts = claimant_times_of(j);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      claims.push_back(
          {cs[k], static_cast<std::uint32_t>(j), ts[k]});
    }
  }
  dataset.claims = SourceClaimMatrix(n_, m_, claims);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  cells.reserve(exposed_);
  for (std::size_t j = 0; j < m_; ++j) {
    for (std::uint32_t i : exposed_sources(j)) {
      cells.emplace_back(i, static_cast<std::uint32_t>(j));
    }
  }
  dataset.dependency = DependencyIndicators::from_cells(n_, m_, cells);
  bool any_label = false;
  for (std::size_t j = 0; j < m_; ++j) {
    if (truth(j) != Label::kUnknown) {
      any_label = true;
      break;
    }
  }
  if (any_label) {
    dataset.truth.resize(m_);
    for (std::size_t j = 0; j < m_; ++j) dataset.truth[j] = truth(j);
  }
  dataset.validate();
  return dataset;
}

// --- SsdWriter -------------------------------------------------------

struct SsdWriter::Impl {
  std::string path;
  std::string name;
  std::size_t n = 0;
  bool in_assertion = false;
  bool finished = false;

  // Column spools (sidecar temp files; RAM holds offsets + counters
  // only, so memory stays O(n + m) regardless of claim volume).
  std::ofstream cl_ids;
  std::ofstream cl_times;
  std::ofstream ex_ids;
  std::string cl_ids_path;
  std::string cl_times_path;
  std::string ex_ids_path;

  std::vector<std::uint64_t> col_claim_off{0};
  std::vector<std::uint64_t> col_exp_off{0};
  std::vector<std::uint8_t> truth;
  std::vector<std::uint32_t> row_claim_deg;
  std::vector<std::uint32_t> row_exp_deg;
  std::uint64_t claim_count = 0;
  std::uint64_t exposed_count = 0;

  // Current column buffers.
  std::vector<std::pair<std::uint32_t, double>> col_claims;
  std::vector<std::uint32_t> col_exposed;

  void remove_temps() {
    std::remove(cl_ids_path.c_str());
    std::remove(cl_times_path.c_str());
    std::remove(ex_ids_path.c_str());
  }
};

SsdWriter::SsdWriter(std::string path, std::size_t sources,
                     std::string name)
    : impl_(new Impl) {
  impl_->path = std::move(path);
  impl_->name = std::move(name);
  impl_->n = sources;
  impl_->row_claim_deg.assign(sources, 0);
  impl_->row_exp_deg.assign(sources, 0);
  impl_->cl_ids_path = impl_->path + ".tmp.cl";
  impl_->cl_times_path = impl_->path + ".tmp.ct";
  impl_->ex_ids_path = impl_->path + ".tmp.ex";
  impl_->cl_ids.open(impl_->cl_ids_path,
                     std::ios::binary | std::ios::trunc);
  impl_->cl_times.open(impl_->cl_times_path,
                       std::ios::binary | std::ios::trunc);
  impl_->ex_ids.open(impl_->ex_ids_path,
                     std::ios::binary | std::ios::trunc);
  if (!impl_->cl_ids || !impl_->cl_times || !impl_->ex_ids) {
    std::string p = impl_->path;
    impl_->remove_temps();
    delete impl_;
    impl_ = nullptr;
    throw std::runtime_error("SsdWriter: cannot create spool files for " +
                             p);
  }
}

SsdWriter::~SsdWriter() {
  if (impl_ != nullptr) {
    if (!impl_->finished) impl_->remove_temps();
    delete impl_;
  }
}

void SsdWriter::begin_assertion(Label truth) {
  if (impl_->finished) {
    throw std::invalid_argument("SsdWriter: begin_assertion after finish");
  }
  if (impl_->in_assertion) flush_column();
  impl_->in_assertion = true;
  impl_->truth.push_back(static_cast<std::uint8_t>(truth));
}

void SsdWriter::claim(std::uint32_t source, double time) {
  if (!impl_->in_assertion) {
    throw std::invalid_argument("SsdWriter: claim outside an assertion");
  }
  if (source >= impl_->n) {
    throw std::invalid_argument("SsdWriter: source id out of range");
  }
  impl_->col_claims.emplace_back(source, time);
}

void SsdWriter::exposed(std::uint32_t source) {
  if (!impl_->in_assertion) {
    throw std::invalid_argument("SsdWriter: exposed outside an assertion");
  }
  if (source >= impl_->n) {
    throw std::invalid_argument("SsdWriter: source id out of range");
  }
  impl_->col_exposed.push_back(source);
}

void SsdWriter::flush_column() {
  Impl& im = *impl_;
  std::sort(im.col_claims.begin(), im.col_claims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(im.col_exposed.begin(), im.col_exposed.end());
  for (std::size_t k = 1; k < im.col_claims.size(); ++k) {
    if (im.col_claims[k].first == im.col_claims[k - 1].first) {
      throw std::invalid_argument(
          "SsdWriter: duplicate claimant in one assertion");
    }
  }
  for (std::size_t k = 1; k < im.col_exposed.size(); ++k) {
    if (im.col_exposed[k] == im.col_exposed[k - 1]) {
      throw std::invalid_argument(
          "SsdWriter: duplicate exposed cell in one assertion");
    }
  }
  for (const auto& [i, t] : im.col_claims) {
    im.cl_ids.write(reinterpret_cast<const char*>(&i), 4);
    im.cl_times.write(reinterpret_cast<const char*>(&t), 8);
    ++im.row_claim_deg[i];
  }
  for (std::uint32_t i : im.col_exposed) {
    im.ex_ids.write(reinterpret_cast<const char*>(&i), 4);
    ++im.row_exp_deg[i];
  }
  im.claim_count += im.col_claims.size();
  im.exposed_count += im.col_exposed.size();
  im.col_claim_off.push_back(im.claim_count);
  im.col_exp_off.push_back(im.exposed_count);
  im.col_claims.clear();
  im.col_exposed.clear();
}

namespace {

// Read-write image of the output file being assembled: mmap-backed on
// POSIX (ftruncate + MAP_SHARED), a heap buffer elsewhere.
struct OutImage {
  char* base = nullptr;
  std::size_t size = 0;
  bool mapped = false;
  std::string path;

  static OutImage create(const std::string& path, std::size_t size) {
    OutImage out;
    out.path = path;
    out.size = size;
#if SS_SSD_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw std::runtime_error("SsdWriter: cannot create " + path);
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      ::close(fd);
      std::remove(path.c_str());
      throw std::runtime_error("SsdWriter: cannot size " + path);
    }
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) {
      std::remove(path.c_str());
      throw std::runtime_error("SsdWriter: cannot map " + path);
    }
    out.base = static_cast<char*>(p);
    out.mapped = true;
#else
    out.base = new char[size];
    std::memset(out.base, 0, size);
#endif
    return out;
  }

  void commit() {
#if SS_SSD_HAVE_MMAP
    ::msync(base, size, MS_SYNC);
    ::munmap(base, size);
#else
    std::ofstream outf(path, std::ios::binary | std::ios::trunc);
    outf.write(base, static_cast<std::streamsize>(size));
    delete[] base;
    if (!outf) throw std::runtime_error("SsdWriter: cannot write " + path);
#endif
    base = nullptr;
  }

  void abandon() {
    if (base == nullptr) return;
#if SS_SSD_HAVE_MMAP
    ::munmap(base, size);
#else
    delete[] base;
#endif
    base = nullptr;
    std::remove(path.c_str());
  }
};

void read_spool(const std::string& path, char* dst, std::size_t bytes) {
  std::ifstream in(path, std::ios::binary);
  in.read(dst, static_cast<std::streamsize>(bytes));
  if (!in && bytes > 0) {
    throw std::runtime_error("SsdWriter: spool file short: " + path);
  }
}

}  // namespace

SsdStats SsdWriter::finish() {
  Impl& im = *impl_;
  if (im.finished) {
    throw std::invalid_argument("SsdWriter: finish called twice");
  }
  if (im.in_assertion) flush_column();
  im.finished = true;
  im.cl_ids.close();
  im.cl_times.close();
  im.ex_ids.close();
  if (!im.cl_ids || !im.cl_times || !im.ex_ids) {
    im.remove_temps();
    throw std::runtime_error("SsdWriter: spool write failed for " +
                             im.path);
  }

  const std::uint64_t n = im.n;
  const std::uint64_t m = im.truth.size();
  const std::uint64_t claims = im.claim_count;
  const std::uint64_t exposed = im.exposed_count;

  // Layout: header | table | header digest | sections (8-aligned).
  const std::size_t fixed = kHeaderWords * 8;
  const std::size_t digest_at = fixed + kSsdSectionCount * 24;
  std::size_t at = digest_at + 8;
  std::uint64_t sizes[kSsdSectionCount + 1] = {};
  std::uint64_t offsets[kSsdSectionCount + 1] = {};
  auto place = [&](SsdSection id, std::uint64_t bytes) {
    at = align8(at);
    offsets[static_cast<std::size_t>(id)] = at;
    sizes[static_cast<std::size_t>(id)] = bytes;
    at += static_cast<std::size_t>(bytes);
  };
  place(SsdSection::kName, im.name.size());
  place(SsdSection::kTruth, m);
  place(SsdSection::kColClaimOff, (m + 1) * 8);
  place(SsdSection::kColClaimants, claims * 4);
  place(SsdSection::kColClaimTimes, claims * 8);
  place(SsdSection::kColExpOff, (m + 1) * 8);
  place(SsdSection::kColExposed, exposed * 4);
  place(SsdSection::kRowClaimOff, (n + 1) * 8);
  place(SsdSection::kRowClaims, claims * 4);
  place(SsdSection::kRowClaimTimes, claims * 8);
  place(SsdSection::kRowExpOff, (n + 1) * 8);
  place(SsdSection::kRowExposed, exposed * 4);
  const std::size_t total = align8(at);

  const std::string tmp = im.path + ".tmp";
  OutImage out = OutImage::create(tmp, total);
  try {
    auto sec = [&](SsdSection id) {
      return out.base + offsets[static_cast<std::size_t>(id)];
    };
    // Name, truth, column offsets straight from RAM.
    std::memcpy(sec(SsdSection::kName), im.name.data(), im.name.size());
    std::memcpy(sec(SsdSection::kTruth), im.truth.data(), m);
    std::memcpy(sec(SsdSection::kColClaimOff), im.col_claim_off.data(),
                (m + 1) * 8);
    std::memcpy(sec(SsdSection::kColExpOff), im.col_exp_off.data(),
                (m + 1) * 8);
    // Column payloads from the spools.
    read_spool(im.cl_ids_path, sec(SsdSection::kColClaimants),
               claims * 4);
    read_spool(im.cl_times_path, sec(SsdSection::kColClaimTimes),
               claims * 8);
    read_spool(im.ex_ids_path, sec(SsdSection::kColExposed), exposed * 4);
    im.remove_temps();

    // Row offsets from the degree counters.
    auto* row_claim_off =
        reinterpret_cast<std::uint64_t*>(sec(SsdSection::kRowClaimOff));
    auto* row_exp_off =
        reinterpret_cast<std::uint64_t*>(sec(SsdSection::kRowExpOff));
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      row_claim_off[i] = acc;
      acc += im.row_claim_deg[i];
    }
    row_claim_off[n] = acc;
    acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      row_exp_off[i] = acc;
      acc += im.row_exp_deg[i];
    }
    row_exp_off[n] = acc;

    // Counting-sort transpose: walking columns in ascending j fills
    // each row's list in ascending assertion order.
    {
      const auto* col_off = reinterpret_cast<const std::uint64_t*>(
          sec(SsdSection::kColClaimOff));
      const auto* col_ids = reinterpret_cast<const std::uint32_t*>(
          sec(SsdSection::kColClaimants));
      const auto* col_times = reinterpret_cast<const double*>(
          sec(SsdSection::kColClaimTimes));
      auto* row_ids =
          reinterpret_cast<std::uint32_t*>(sec(SsdSection::kRowClaims));
      auto* row_times = reinterpret_cast<double*>(
          sec(SsdSection::kRowClaimTimes));
      std::vector<std::uint64_t> cursor(row_claim_off, row_claim_off + n);
      for (std::size_t j = 0; j < m; ++j) {
        for (std::uint64_t k = col_off[j]; k < col_off[j + 1]; ++k) {
          std::uint64_t pos = cursor[col_ids[k]]++;
          row_ids[pos] = static_cast<std::uint32_t>(j);
          row_times[pos] = col_times[k];
        }
      }
    }
    {
      const auto* col_off = reinterpret_cast<const std::uint64_t*>(
          sec(SsdSection::kColExpOff));
      const auto* col_ids = reinterpret_cast<const std::uint32_t*>(
          sec(SsdSection::kColExposed));
      auto* row_ids =
          reinterpret_cast<std::uint32_t*>(sec(SsdSection::kRowExposed));
      std::vector<std::uint64_t> cursor(row_exp_off, row_exp_off + n);
      for (std::size_t j = 0; j < m; ++j) {
        for (std::uint64_t k = col_off[j]; k < col_off[j + 1]; ++k) {
          std::uint64_t pos = cursor[col_ids[k]]++;
          row_ids[pos] = static_cast<std::uint32_t>(j);
        }
      }
    }

    // Seals: payload digest over sections in id order, then the header
    // and its digest.
    std::uint64_t payload = 0xcbf29ce484222325ULL;
    for (std::size_t s = 1; s <= kSsdSectionCount; ++s) {
      payload = fnv1a64(out.base + offsets[s], sizes[s], payload);
    }
    const std::uint64_t fp =
        ssd_fingerprint(im.name, n, m, claims, exposed);
    auto* head = reinterpret_cast<std::uint64_t*>(out.base);
    head[0] = kSsdMagic;
    head[1] = kSsdVersion;
    head[2] = fp;
    head[3] = n;
    head[4] = m;
    head[5] = claims;
    head[6] = exposed;
    head[7] = kSsdSectionCount;
    head[8] = payload;
    auto* table = reinterpret_cast<std::uint64_t*>(out.base + fixed);
    for (std::size_t s = 1; s <= kSsdSectionCount; ++s) {
      table[(s - 1) * 3 + 0] = s;
      table[(s - 1) * 3 + 1] = offsets[s];
      table[(s - 1) * 3 + 2] = sizes[s];
    }
    const std::uint64_t head_digest = fnv1a64(out.base, digest_at);
    std::memcpy(out.base + digest_at, &head_digest, 8);
    out.commit();

    if (std::rename(tmp.c_str(), im.path.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw std::runtime_error("SsdWriter: rename failed for " + im.path);
    }
    SsdStats stats;
    stats.sources = static_cast<std::size_t>(n);
    stats.assertions = static_cast<std::size_t>(m);
    stats.claims = static_cast<std::size_t>(claims);
    stats.exposed = static_cast<std::size_t>(exposed);
    stats.fingerprint = fp;
    stats.bytes = total;
    return stats;
  } catch (...) {
    out.abandon();
    im.remove_temps();
    throw;
  }
}

SsdStats write_ssd(const Dataset& dataset, const std::string& path) {
  dataset.validate();
  SsdWriter writer(path, dataset.source_count(),
                   dataset.name.empty() ? "dataset" : dataset.name);
  const std::size_t m = dataset.assertion_count();
  const bool labeled = !dataset.truth.empty();
  for (std::size_t j = 0; j < m; ++j) {
    writer.begin_assertion(labeled ? dataset.truth[j] : Label::kUnknown);
    std::span<const std::uint32_t> cs = dataset.claims.claimants_of(j);
    std::span<const double> ts = dataset.claims.claimant_times_of(j);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      writer.claim(cs[k], ts[k]);
    }
    for (std::uint32_t i : dataset.dependency.exposed_sources(j)) {
      writer.exposed(i);
    }
  }
  return writer.finish();
}

}  // namespace ss
