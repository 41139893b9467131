// Package cli is the shared plumbing of the bruckctl subcommands:
// canonical flag vocabulary, transport/chaos flag parsing with engine
// option construction, and the one result renderer. Every study returns
// its results as Table values and RenderTables prints them as aligned
// text, CSV or JSON: renderText and renderCSV are the only code that
// formats a row, so the three forms carry the same cells.
package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Format selects how a Table renders.
type Format int

const (
	// FormatTable is the human-readable aligned text table.
	FormatTable Format = iota
	// FormatCSV is comma-separated values with a header row.
	FormatCSV
	// FormatJSON is the machine-readable JSON document (stable field
	// order, one object per table).
	FormatJSON
)

// PickFormat resolves the -csv / -report-json flag pair into a Format.
// The flags are mutually exclusive.
func PickFormat(csv, reportJSON bool) (Format, error) {
	switch {
	case csv && reportJSON:
		return FormatTable, fmt.Errorf("cli: -csv and -report-json are mutually exclusive")
	case csv:
		return FormatCSV, nil
	case reportJSON:
		return FormatJSON, nil
	}
	return FormatTable, nil
}

// Table is one machine-renderable result table: a name, column headers
// and string-valued rows. Rows keep column order in every format, so
// the table, CSV and JSON renderings carry identical data.
type Table struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`

	kv bool // a KV table: its text form is one "key: value" line per row
}

// AddRow appends one row. The cell count must match the column count;
// mismatches are caught by Render.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// KV returns a two-column key/value table, the shape used for
// single-result summaries.
func KV(name string) *Table {
	return &Table{Name: name, Columns: []string{"key", "value"}, kv: true}
}

// Add appends a key/value pair to a KV table.
func (t *Table) Add(key string, value any) {
	t.AddRow(key, fmt.Sprint(value))
}

// validate checks row shapes before rendering.
func (t *Table) validate() error {
	for i, r := range t.Rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("cli: table %q row %d has %d cells, want %d", t.Name, i, len(r), len(t.Columns))
		}
	}
	return nil
}

// renderText writes the text form: "key: value" lines for a KV table,
// otherwise the header and the rows right-aligned in columns.
func (t *Table) renderText(w io.Writer) error {
	if t.kv {
		for _, r := range t.Rows {
			if _, err := fmt.Fprintf(w, "%s: %s\n", r[0], r[1]); err != nil {
				return err
			}
		}
		return nil
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], cell)
		}
		sb.WriteByte('\n')
		_, err := io.WriteString(w, sb.String())
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// renderCSV writes the CSV form; commas inside cells become
// semicolons, matching the historic sweep.CSV behaviour.
func (t *Table) renderCSV(w io.Writer) error {
	row := func(cells []string) error {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			escaped[i] = strings.ReplaceAll(c, ",", ";")
		}
		_, err := io.WriteString(w, strings.Join(escaped, ",")+"\n")
		return err
	}
	if err := row(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the table in the selected format.
func (t *Table) Render(w io.Writer, f Format) error {
	if err := t.validate(); err != nil {
		return err
	}
	switch f {
	case FormatTable:
		return t.renderText(w)
	case FormatCSV:
		return t.renderCSV(w)
	case FormatJSON:
		return RenderTables(w, FormatJSON, t)
	}
	return fmt.Errorf("cli: unknown format %d", f)
}

// RenderTables renders a group of tables. In table and CSV formats the
// tables print sequentially, each preceded by its name and separated by
// a blank line; in JSON the group is one document: a JSON array of
// table objects (stable field order), terminated by a newline.
func RenderTables(w io.Writer, f Format, tables ...*Table) error {
	for _, t := range tables {
		if err := t.validate(); err != nil {
			return err
		}
	}
	if f == FormatJSON {
		for _, t := range tables {
			if t.Rows == nil {
				t.Rows = [][]string{} // canonical: [] not null
			}
		}
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return fmt.Errorf("cli: marshal tables: %w", err)
		}
		_, err = w.Write(append(data, '\n'))
		return err
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if t.Name != "" {
			if _, err := fmt.Fprintf(w, "%s:\n", t.Name); err != nil {
				return err
			}
		}
		if err := t.Render(w, f); err != nil {
			return err
		}
	}
	return nil
}
