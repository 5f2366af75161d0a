#include "util/cli.h"

#include <cstdlib>

#include "util/log.h"
#include "util/string_util.h"

namespace ss {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

long long& Cli::add_int(const std::string& name, long long default_value,
                        const std::string& help) {
  long long& store = ints_.emplace_back(default_value);
  options_.push_back({name, help, Kind::kInt, ints_.size() - 1,
                      strprintf("%lld", default_value)});
  return store;
}

double& Cli::add_double(const std::string& name, double default_value,
                        const std::string& help) {
  double& store = doubles_.emplace_back(default_value);
  options_.push_back({name, help, Kind::kDouble, doubles_.size() - 1,
                      strprintf("%g", default_value)});
  return store;
}

std::string& Cli::add_string(const std::string& name,
                             const std::string& default_value,
                             const std::string& help) {
  std::string& store = strings_.emplace_back(default_value);
  options_.push_back(
      {name, help, Kind::kString, strings_.size() - 1, default_value});
  return store;
}

bool& Cli::add_flag(const std::string& name, const std::string& help) {
  bool& store = flags_.emplace_back(false);
  options_.push_back({name, help, Kind::kFlag, flags_.size() - 1, "false"});
  return store;
}

Cli::Option* Cli::find(const std::string& name) {
  for (auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

bool Cli::assign(Option& opt, const std::string& value) {
  char* end = nullptr;
  switch (opt.kind) {
    case Kind::kInt: {
      long long v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      ints_[opt.index] = v;
      return true;
    }
    case Kind::kDouble: {
      double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
      doubles_[opt.index] = v;
      return true;
    }
    case Kind::kString:
      strings_[opt.index] = value;
      return true;
    case Kind::kFlag:
      return false;  // flags do not take values
  }
  return false;
}

bool Cli::try_parse(int argc, char** argv, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return fail("help requested\n" + usage());
    }
    if (!starts_with(arg, "--")) {
      return fail("unexpected argument: " + arg);
    }
    std::string body = arg.substr(2);
    std::string name = body;
    std::string value;
    bool has_value = false;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    }
    Option* opt = find(name);
    if (opt == nullptr) {
      return fail("unknown flag: --" + name);
    }
    if (opt->kind == Kind::kFlag) {
      if (has_value) {
        return fail("flag --" + name + " takes no value");
      }
      flags_[opt->index] = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        return fail("flag --" + name + " requires a value");
      }
      value = argv[++i];
    }
    if (!assign(*opt, value)) {
      return fail("bad value for --" + name + ": " + value);
    }
  }
  return true;
}

void Cli::parse(int argc, char** argv) {
  // --help gets stdout + exit 0; every parse failure gets stderr + 2.
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      write_stdout(usage());
      std::exit(0);
    }
  }
  std::string error;
  if (!try_parse(argc, argv, &error)) {
    write_stderr(error + "\n" + usage());
    std::exit(2);
  }
}

std::string Cli::usage() const {
  std::string out = program_ + " — " + description_ + "\n\nflags:\n";
  for (const auto& opt : options_) {
    out += strprintf("  --%-18s %s (default: %s)\n", opt.name.c_str(),
                     opt.help.c_str(), opt.default_repr.c_str());
  }
  return out;
}

}  // namespace ss
