package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/stats"
)

// WriteJSON writes v in the canonical machine-readable form every
// emitter shares — the CLI's `-json` output and the HTTP service's
// envelope, listing and result endpoints: two-space-indented JSON
// followed by a single newline.  One encoder means CLI and service
// output can be byte-compared, and the contract tests do.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ReportSchema tags the JSON envelope of a single experiment report.
// Bump it when the Report wire shape changes incompatibly.
const ReportSchema = "repro/report/v1"

// EnvelopeSchema tags the `repro all -json` document.
const EnvelopeSchema = "repro/reportset/v1"

// Report is the uniform result model every experiment returns: run
// metadata plus one or more named tables of typed columns, optional
// series (curves/histograms), and free-form note lines.  Its JSON form
// is the machine-readable envelope consumed by sweep services and bench
// tracking; Render produces the human-readable text the CLI prints.
//
// The JSON encoding is deterministic: all collections are slices, and
// float64 cells round-trip exactly through encoding/json's shortest
// representation.  Wall is deliberately excluded from JSON so the
// envelope stays byte-identical across runs and GOMAXPROCS settings.
type Report struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Summary    string `json:"summary,omitempty"`

	Instructions uint64 `json:"instructions"`
	Seed         uint64 `json:"seed"`

	// Wall describes how the run executed, not what it computed, so it
	// is excluded from the JSON envelope to keep it byte-identical
	// across runs (it still renders in text output).
	Wall time.Duration `json:"-"`

	Tables []*Table `json:"tables,omitempty"`
	Series []Series `json:"series,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// AddTable appends a table and returns the report for chaining.
func (r *Report) AddTable(t *Table) *Report {
	r.Tables = append(r.Tables, t)
	return r
}

// AddSeries appends a series.
func (r *Report) AddSeries(s Series) *Report {
	r.Series = append(r.Series, s)
	return r
}

// Notef appends a formatted note line.
func (r *Report) Notef(format string, args ...any) *Report {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	return r
}

// Table returns the named table, or nil if the report has none.
func (r *Report) Table(name string) *Table {
	for _, t := range r.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// SeriesByName returns the named series and whether it exists.
func (r *Report) SeriesByName(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Float looks up a float cell by (table, row key, column); the row key
// matches the table's first (string) column.  The golden suite reads
// its pinned values through this path.
func (r *Report) Float(table, rowKey, col string) (float64, bool) {
	if t := r.Table(table); t != nil {
		return t.Float(rowKey, col)
	}
	return 0, false
}

// Int is Float for integer columns.
func (r *Report) Int(table, rowKey, col string) (int64, bool) {
	if t := r.Table(table); t != nil {
		return t.Int(rowKey, col)
	}
	return 0, false
}

// ColKind is a table column's cell type.
type ColKind string

// The three cell types a Column can carry.
const (
	ColString ColKind = "string"
	ColFloat  ColKind = "float"
	ColInt    ColKind = "int"
)

// Column is one typed column of a table, stored column-major so every
// cell keeps its native Go type through a JSON round trip (a row-major
// []any would decode integers as float64).  Exactly one of the value
// slices is populated, matching Kind.
type Column struct {
	Name string  `json:"name"`
	Kind ColKind `json:"kind"`
	// Format is the fmt verb Render uses for float cells (default %.2f).
	Format  string    `json:"format,omitempty"`
	Strings []string  `json:"strings,omitempty"`
	Floats  []float64 `json:"floats,omitempty"`
	Ints    []int64   `json:"ints,omitempty"`
}

// StrCol declares a string column.
func StrCol(name string) Column { return Column{Name: name, Kind: ColString} }

// FloatCol declares a float64 column; format is the Render verb ("" =
// %.2f).
func FloatCol(name, format string) Column {
	return Column{Name: name, Kind: ColFloat, Format: format}
}

// IntCol declares an integer column.
func IntCol(name string) Column { return Column{Name: name, Kind: ColInt} }

// Table is a named grid of typed columns.  Rows are added row-wise via
// AddRow; by convention the first column is a string row key, which the
// lookup helpers match on.
type Table struct {
	Name    string   `json:"name"`
	Title   string   `json:"title,omitempty"`
	Columns []Column `json:"columns"`
}

// NewTable builds a table from column declarations.
func NewTable(name, title string, cols ...Column) *Table {
	return &Table{Name: name, Title: title, Columns: cols}
}

// Len returns the number of rows.
func (t *Table) Len() int {
	if len(t.Columns) == 0 {
		return 0
	}
	c := &t.Columns[0]
	return len(c.Strings) + len(c.Floats) + len(c.Ints)
}

// AddRow appends one row.  Cells must match the column kinds: string
// for ColString; float64 for ColFloat; int, int64, uint64 or uint for
// ColInt.  It panics on arity or kind mismatch — report construction is
// programmer-controlled, and a malformed table should fail loudly in
// tests, not ship a corrupt envelope.
func (t *Table) AddRow(cells ...any) *Table {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("exp: table %s row has %d cells, want %d", t.Name, len(cells), len(t.Columns)))
	}
	for i := range cells {
		c := &t.Columns[i]
		switch c.Kind {
		case ColString:
			s, ok := cells[i].(string)
			if !ok {
				panic(fmt.Sprintf("exp: table %s column %s wants string, got %T", t.Name, c.Name, cells[i]))
			}
			c.Strings = append(c.Strings, s)
		case ColFloat:
			f, ok := cells[i].(float64)
			if !ok {
				panic(fmt.Sprintf("exp: table %s column %s wants float64, got %T", t.Name, c.Name, cells[i]))
			}
			c.Floats = append(c.Floats, f)
		case ColInt:
			var v int64
			switch n := cells[i].(type) {
			case int:
				v = int64(n)
			case int64:
				v = n
			case uint64:
				v = int64(n)
			case uint:
				v = int64(n)
			default:
				panic(fmt.Sprintf("exp: table %s column %s wants integer, got %T", t.Name, c.Name, cells[i]))
			}
			c.Ints = append(c.Ints, v)
		default:
			panic(fmt.Sprintf("exp: table %s column %s has unknown kind %q", t.Name, c.Name, c.Kind))
		}
	}
	return t
}

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// rowIndex finds the row whose first-column string cell equals key.
func (t *Table) rowIndex(key string) int {
	if len(t.Columns) == 0 || t.Columns[0].Kind != ColString {
		return -1
	}
	for i, s := range t.Columns[0].Strings {
		if s == key {
			return i
		}
	}
	return -1
}

// Float returns the float cell at (rowKey, col).
func (t *Table) Float(rowKey, col string) (float64, bool) {
	ri, ci := t.rowIndex(rowKey), t.ColumnIndex(col)
	if ri < 0 || ci < 0 || t.Columns[ci].Kind != ColFloat || ri >= len(t.Columns[ci].Floats) {
		return 0, false
	}
	return t.Columns[ci].Floats[ri], true
}

// Int returns the integer cell at (rowKey, col).
func (t *Table) Int(rowKey, col string) (int64, bool) {
	ri, ci := t.rowIndex(rowKey), t.ColumnIndex(col)
	if ri < 0 || ci < 0 || t.Columns[ci].Kind != ColInt || ri >= len(t.Columns[ci].Ints) {
		return 0, false
	}
	return t.Columns[ci].Ints[ri], true
}

// cell renders one cell as text.
func (t *Table) cell(ci, ri int) string {
	c := &t.Columns[ci]
	switch c.Kind {
	case ColString:
		return c.Strings[ri]
	case ColFloat:
		format := c.Format
		if format == "" {
			format = "%.2f"
		}
		return fmt.Sprintf(format, c.Floats[ri])
	case ColInt:
		return fmt.Sprintf("%d", c.Ints[ri])
	}
	return ""
}

// render writes the table as aligned text.
func (t *Table) render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n\n", t.Title)
	}
	headers := make([]string, len(t.Columns))
	for i := range t.Columns {
		headers[i] = t.Columns[i].Name
	}
	st := stats.NewTable(headers...)
	for ri := 0; ri < t.Len(); ri++ {
		row := make([]string, len(t.Columns))
		for ci := range t.Columns {
			row[ci] = t.cell(ci, ri)
		}
		st.AddRow(row...)
	}
	io.WriteString(w, st.String())
}

// Series is a named curve: Y values with optional X coordinates (bin
// edges, sweep coordinates).  Histograms are series whose Y are counts.
type Series struct {
	Name   string    `json:"name"`
	XLabel string    `json:"xlabel,omitempty"`
	YLabel string    `json:"ylabel,omitempty"`
	X      []float64 `json:"x,omitempty"`
	Y      []float64 `json:"y"`
}

// Total returns the sum of the Y values (a histogram's sample count).
func (s Series) Total() float64 {
	var sum float64
	for _, y := range s.Y {
		sum += y
	}
	return sum
}

// render draws the series one row per point with a log-scaled count bar
// (the presentation of the paper's Figure 1 frequency axis).
func (s Series) render(w io.Writer) {
	fmt.Fprintf(w, "%s (n=%g)\n", s.Name, s.Total())
	for i, y := range s.Y {
		x := float64(i)
		if i < len(s.X) {
			x = s.X[i]
		}
		bar := ""
		if y >= 1 {
			bar = strings.Repeat("#", 1+int(math.Log10(y)))
		}
		fmt.Fprintf(w, "  %s%6.1f %8g %s\n", xPrefix(s.XLabel), x, y, bar)
	}
}

func xPrefix(label string) string {
	if label == "" {
		return "<="
	}
	return label + "="
}

// Render writes the full human-readable report: header, metadata,
// tables, series and notes.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.Experiment, r.Summary)
	fmt.Fprintf(w, "(instructions=%d seed=%d)\n\n", r.Instructions, r.Seed)
	for _, t := range r.Tables {
		t.render(w)
		fmt.Fprintln(w)
	}
	for _, s := range r.Series {
		s.render(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
}

// RenderString is Render into a string (tests and log sinks).
func (r *Report) RenderString() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// Envelope is the `repro all -json` document: a schema tag, one report
// per successfully completed experiment (in registry order), and one
// error record per failed experiment.
type Envelope struct {
	Schema  string     `json:"schema"`
	Reports []*Report  `json:"reports"`
	Errors  []RunError `json:"errors,omitempty"`
}

// RunError records one failed experiment in an Envelope.
type RunError struct {
	Experiment string `json:"experiment"`
	Error      string `json:"error"`
}
