// Tiny declarative command-line flag parser for examples and benches.
//
//   ss::Cli cli("quickstart", "Run the Fig.1 walkthrough");
//   auto& seed = cli.add_int("seed", 1, "RNG seed");
//   auto& iters = cli.add_int("max-iters", 100, "EM iteration cap");
//   cli.parse(argc, argv);              // exits on --help / bad flag
//
// Flags take the form --name=value or --name value; bools are --name.
#pragma once

#include <deque>
#include <string>
#include <vector>

namespace ss {

class Cli {
 public:
  Cli(std::string program, std::string description);

  long long& add_int(const std::string& name, long long default_value,
                     const std::string& help);
  double& add_double(const std::string& name, double default_value,
                     const std::string& help);
  std::string& add_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help);
  bool& add_flag(const std::string& name, const std::string& help);

  // Parses argv. On --help prints usage and exits(0); on an unknown or
  // malformed flag prints usage and exits(2).
  void parse(int argc, char** argv);

  // Testable form: returns false and fills `error` instead of exiting.
  // --help is reported as an error with the usage text.
  [[nodiscard]] bool try_parse(int argc, char** argv, std::string* error);

  std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    std::string name;
    std::string help;
    Kind kind;
    std::size_t index;  // into the matching value store
    std::string default_repr;
  };

  Option* find(const std::string& name);
  bool assign(Option& opt, const std::string& value);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  // One store per value kind, owned by the Cli. add_* returns references
  // into them, and std::deque::emplace_back never moves the elements it
  // already holds, so those references stay valid for the Cli's life.
  std::deque<long long> ints_;
  std::deque<double> doubles_;
  std::deque<std::string> strings_;
  std::deque<bool> flags_;
};

}  // namespace ss
