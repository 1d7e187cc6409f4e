#include "util/table.h"

#include <algorithm>
#include <cstdio>

namespace flash {

void TextTable::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& cells) {
    if (cells.size() > width.size()) width.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      width[i] = std::max(width[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto emit = [&](std::string& out, const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string();
      out += c;
      if (i + 1 < width.size()) {
        out.append(width[i] - c.size() + 2, ' ');
      }
    }
    out += '\n';
  };

  std::string out;
  if (!header_.empty()) {
    emit(out, header_);
    std::size_t total = 0;
    for (std::size_t w : width) total += w + 2;
    out.append(total > 2 ? total - 2 : total, '-');
    out += '\n';
  }
  for (const auto& r : rows_) emit(out, r);
  return out;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string fmt_signed_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string fmt_sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

std::string fmt_ratio(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*fx", precision, v);
  return buf;
}

}  // namespace flash
