#include "util/string_util.h"

#include <sstream>

namespace comet {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(s);
  while (std::getline(in, field, delim)) {
    out.push_back(field);
  }
  if (!s.empty() && s.back() == delim) {
    out.emplace_back();
  }
  if (s.empty()) {
    out.emplace_back();
  }
  return out;
}

}  // namespace comet
