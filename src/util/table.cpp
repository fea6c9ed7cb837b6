#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace rmwp {

std::string format_fixed(double value, int precision) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string format_ci(const Samples& samples, int precision) {
    if (samples.count() < 2) return "n/a";
    return "+/- " + format_fixed(samples.ci_halfwidth(), precision);
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
    RMWP_EXPECT(!headers_.empty());
}

Table& Table::row() {
    rows_.emplace_back();
    return *this;
}

Table& Table::cell(std::string text) {
    RMWP_EXPECT(!rows_.empty());
    RMWP_EXPECT(rows_.back().size() < headers_.size());
    rows_.back().push_back(std::move(text));
    return *this;
}

Table& Table::cell(double value, int precision) { return cell(format_fixed(value, precision)); }

Table& Table::cell(long long value) { return cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string& text = c < cells.size() ? cells[c] : std::string{};
            os << text << std::string(widths[c] - text.size(), ' ');
            if (c + 1 < headers_.size()) os << "  ";
        }
        os << '\n';
    };

    emit(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows_) emit(row);
}

} // namespace rmwp
