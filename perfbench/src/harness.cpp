#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int Tracer::open(std::string name, std::uint64_t op) {
  Record record;
  record.name = std::move(name);
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.op = op;
  record.start = seconds_between(origin_, Clock::now());
  records_.push_back(std::move(record));
  int index = static_cast<int>(records_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  records_[static_cast<std::size_t>(index)].end =
      seconds_between(origin_, Clock::now());
  // Spans close in LIFO order (they are scoped objects).
  stack_.pop_back();
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Record& r : records_) {
    if (r.name == name) sum += r.end - r.start;
  }
  return sum;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back(r.end - r.start);
  }
  return out;
}

double Tracer::self_total(std::string_view name) const {
  std::vector<double> child_time(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_time[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == name) {
      sum += records_[i].end - records_[i].start - child_time[i];
    }
  }
  return sum;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"op\":%llu}\n",
                 i, r.name.c_str(), r.start, r.end, r.parent,
                 static_cast<unsigned long long>(r.op));
  }
  return std::fclose(f) == 0;
}

void Ledger::fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

bool all_finite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

void plant_nonfinite_once(const Options& options,
                          std::vector<double>& belief) {
  static bool planted = false;
  if (!options.plant_nonfinite || planted || belief.empty()) return;
  belief[0] = std::nan("");
  planted = true;
}

bool is_permutation_of_range(const std::vector<std::uint32_t>& order,
                             std::size_t size) {
  if (order.size() != size) return false;
  std::vector<char> seen(size, 0);
  for (std::uint32_t j : order) {
    if (j >= size || seen[j]) return false;
    seen[j] = 1;
  }
  return true;
}

void Fnv1a::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the combined value.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

double Metrics::get(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return entry.second.first;
  }
  return 0.0;
}

}  // namespace perfbench
