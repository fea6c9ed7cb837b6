// Fixed-width console table printing used by the bench binaries to emit
// paper-style rows (Fig 2-5, Table 1, Sec 5.2) in a stable, diffable format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rmwp {

class Samples;

/// Column-aligned text table.  Cells are strings; convenience overloads
/// format numbers with a fixed precision so benchmark output is stable.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Start a new row.  Subsequent cell() calls fill it left to right.
    Table& row();
    Table& cell(std::string text);
    Table& cell(double value, int precision = 2);
    Table& cell(long long value);
    Table& cell(int value) { return cell(static_cast<long long>(value)); }
    Table& cell(std::size_t value) { return cell(static_cast<long long>(value)); }

    /// Render with a header underline and two-space column gaps.
    void print(std::ostream& os) const;

    [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with CSV output).
[[nodiscard]] std::string format_fixed(double value, int precision);

/// "+/- <95% CI half-width>" of `samples`, or "n/a" below two samples: a
/// confidence interval needs at least two.
[[nodiscard]] std::string format_ci(const Samples& samples, int precision = 2);

} // namespace rmwp
