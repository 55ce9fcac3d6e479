#include "util/table.hpp"

#include <algorithm>
#include <sstream>

#include "util/status.hpp"

namespace mrl {

namespace {
constexpr const char* kSeparatorSentinel = "\x01";
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  MRL_CHECK(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> row) {
  MRL_CHECK_MSG(row.size() == header_.size(), "row arity mismatch");
  rows_.push_back(std::move(row));
}

void TextTable::add_separator() {
  rows_.push_back({kSeparatorSentinel});
}

std::string TextTable::render(const std::string& title) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    if (row.size() == 1 && row[0] == kSeparatorSentinel) continue;
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  }

  auto rule = [&](char fill, char join) {
    std::string s = "+";
    for (std::size_t c = 0; c < width.size(); ++c) {
      s.append(width[c] + 2, fill);
      s += (c + 1 == width.size()) ? '+' : join;
    }
    s += '\n';
    return s;
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      s += ' ';
      s += cell;
      s.append(width[c] - cell.size() + 1, ' ');
      s += '|';
    }
    s += '\n';
    return s;
  };

  std::ostringstream os;
  if (!title.empty()) os << title << '\n';
  os << rule('-', '+');
  os << line(header_);
  os << rule('=', '+');
  for (const auto& row : rows_) {
    if (row.size() == 1 && row[0] == kSeparatorSentinel) {
      os << rule('-', '+');
    } else {
      os << line(row);
    }
  }
  os << rule('-', '+');
  return os.str();
}

}  // namespace mrl
