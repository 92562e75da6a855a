package experiments

import (
	"encoding/json"
	"fmt"
)

// Cell is one table cell: the rendered text plus, when the cell is a
// measurement, the numeric value it was rendered from. Carrying the number
// alongside the text lets internal/runner aggregate multi-seed tables
// without re-parsing strings (and without guessing which cells are data).
type Cell struct {
	// Text is the rendered form used in markdown output.
	Text string
	// Num is the underlying measurement; meaningful only when IsNum is set.
	Num float64
	// IsNum marks the cell as numeric data eligible for aggregation.
	IsNum bool
	// Fmt records how Num was rendered ("" = bare number, FmtPercent, or a
	// fmt verb like "%.2fx"), so aggregated means keep the cell's unit.
	Fmt string
}

// FmtPercent marks a fraction rendered as a signed percent ("+6.1%").
const FmtPercent = "pct"

// RenderNum formats v the way this cell's own value was formatted.
func (c Cell) RenderNum(v float64) string {
	switch c.Fmt {
	case "":
		if v == float64(int64(v)) {
			return fmt.Sprintf("%d", int64(v))
		}
		if v >= 100 || v <= -100 {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.3g", v)
	case FmtPercent:
		return fmt.Sprintf("%+.1f%%", v*100)
	default:
		return fmt.Sprintf(c.Fmt, v)
	}
}

// Str builds a non-numeric label cell.
func Str(s string) Cell { return Cell{Text: s} }

// Strf builds a non-numeric label cell from a format string.
func Strf(format string, args ...any) Cell { return Str(fmt.Sprintf(format, args...)) }

// Int builds a numeric cell rendered as a plain integer.
func Int(v int64) Cell { return Cell{Text: fmt.Sprintf("%d", v), Num: float64(v), IsNum: true} }

// Num builds a numeric cell with explicit rendered text and an optional
// format hint for aggregation (may be "" when no re-rendering is needed).
func Num(v float64, text, format string) Cell {
	return Cell{Text: text, Num: v, IsNum: true, Fmt: format}
}

// Float builds a numeric cell rendered with the given fmt verb (e.g. "%.2f").
func Float(format string, v float64) Cell { return Num(v, fmt.Sprintf(format, v), format) }

// Pct builds a numeric cell holding a fraction, rendered as a signed percent.
func Pct(v float64) Cell {
	c := Cell{Num: v, IsNum: true, Fmt: FmtPercent}
	c.Text = c.RenderNum(v)
	return c
}

// Dash is the placeholder cell for measurements that do not exist (e.g. the
// slowdown of a run that never completed).
func Dash() Cell { return Str("—") }

// String returns the rendered text.
func (c Cell) String() string { return c.Text }

// MarshalJSON emits {"text":...} for labels and {"text":...,"num":...} for
// measurements, so JSON consumers can tell data from decoration.
func (c Cell) MarshalJSON() ([]byte, error) {
	if c.IsNum {
		return json.Marshal(struct {
			Text string  `json:"text"`
			Num  float64 `json:"num"`
			Fmt  string  `json:"fmt,omitempty"`
		}{c.Text, c.Num, c.Fmt})
	}
	return json.Marshal(struct {
		Text string `json:"text"`
	}{c.Text})
}
