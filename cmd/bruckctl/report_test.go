package main

import (
	"encoding/csv"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bruck/internal/cli"
)

// find returns the first table of that name.
func find(t *testing.T, tables []*cli.Table, name string) *cli.Table {
	t.Helper()
	for _, tb := range tables {
		if tb.Name == name {
			return tb
		}
	}
	t.Fatalf("no table %q", name)
	return nil
}

// value returns the value of key in the first key/value table of that
// name, "" (and a test error) when the key is absent.
func value(t *testing.T, tables []*cli.Table, name, key string) string {
	t.Helper()
	for _, row := range find(t, tables, name).Rows {
		if row[0] == key {
			return row[1]
		}
	}
	t.Errorf("table %q has no key %q", name, key)
	return ""
}

// column returns the cells of one column of a table.
func column(t *testing.T, tb *cli.Table, name string) []string {
	t.Helper()
	i := slices.Index(tb.Columns, name)
	if i < 0 {
		t.Fatalf("table %q has no column %q", tb.Name, name)
	}
	cells := make([]string, len(tb.Rows))
	for r, row := range tb.Rows {
		cells[r] = row[i]
	}
	return cells
}

// inOrder reports whether the cells occur in line left to right.
func inOrder(line string, cells []string) bool {
	for _, c := range cells {
		i := strings.Index(line, c)
		if i < 0 {
			return false
		}
		line = line[i+len(c):]
	}
	return true
}

// TestReportFormatsAgree: every subcommand and mode prints the same
// tables in every form. The -report-json document is the reference:
// each of its tables appears in the text output under its name, header
// and rows in order (a key/value table as "key: value" lines), and for
// the index figures each blank-line-separated -csv block parses to
// exactly the table's columns and rows.
func TestReportFormatsAgree(t *testing.T) {
	const dir = "../../internal/golden/testdata/golden"
	for _, args := range [][]string{
		{"run", "-op", "index", "-n", "16", "-b", "64"},
		{"run", "-op", "concat", "-n", "17", "-k", "2", "-b", "64"},
		{"run", "-op", "allreduce", "-n", "8", "-b", "64"},
		{"run", "-op", "allreduce", "-n", "8", "-b", "64", "-alg", "auto"},
		{"run", "-op", "broadcast", "-n", "9", "-k", "2"},
		{"run", "-op", "index", "-n", "16", "-b", "4096", "-radix", "auto", "-segments", "4", "-chaos-seed", "3"},
		{"run", "-op", "index", "-n", "12", "-b", "48", "-ragged", "1.2"},
		{"run", "-op", "concat", "-n", "11", "-b", "40", "-ragged", "1.5"},
		{"run", "-op", "index", "-topology", "2x2"},
		{"run", "-op", "allreduce", "-topology", "4x4", "-b", "64", "-kernel", "sum:float32"},
		{"run", "-op", "index", "-n", "16", "-k", "1", "-crossover-segments"},
		{"run", "-op", "index", "-n", "8", "-crossover-segments", "-segments", "4"},
		{"run", "-op", "concat", "-crossover-topology"},
		{"index", "-fig", "4", "-n", "16"},
		{"index", "-fig", "5", "-n", "8"},
		{"index", "-fig", "6", "-n", "16"},
		{"index", "-tune", "-n", "16"},
		{"concat", "-bounds"},
		{"concat", "-optimality"},
		{"concat", "-baselines"},
		{"figures", "-all"},
		{"figures", "-fig", "9", "-n", "6"},
		{"trace", "verify", "-dir", dir},
		{"vet"},
	} {
		render := func(flag ...string) string {
			var sb strings.Builder
			if err := dispatch(append(append([]string{}, args...), flag...), &sb); err != nil {
				t.Fatalf("%v %v: %v", args, flag, err)
			}
			return sb.String()
		}
		var tables []cli.Table
		if err := json.Unmarshal([]byte(render("-report-json")), &tables); err != nil || len(tables) == 0 {
			t.Fatalf("%v: -report-json is not a table array (%v)", args, err)
		}

		lines := strings.Split(render(), "\n")
		at := 0 // tables print in the document's order
		for _, tb := range tables {
			for at < len(lines) && lines[at] != tb.Name+":" {
				at++
			}
			if at++; at > len(lines) {
				t.Errorf("%v: text output lacks table %q", args, tb.Name)
				break
			}
			want := append([][]string{tb.Columns}, tb.Rows...)
			if reflect.DeepEqual(tb.Columns, []string{"key", "value"}) {
				want = nil
				for _, r := range tb.Rows {
					want = append(want, []string{r[0] + ": " + r[1]})
				}
			}
			for _, cells := range want {
				if at >= len(lines) || !inOrder(lines[at], cells) {
					t.Errorf("%v: table %q: text lacks the line %q", args, tb.Name, cells)
					break
				}
				at++
			}
		}

		if args[0] != "index" || args[1] != "-fig" {
			continue
		}
		blocks := strings.Split(strings.TrimSuffix(render("-csv"), "\n"), "\n\n")
		if len(blocks) != len(tables) {
			t.Errorf("%v: -csv has %d blocks, the report %d tables", args, len(blocks), len(tables))
			continue
		}
		for i, tb := range tables {
			name, body, _ := strings.Cut(blocks[i], "\n")
			records, err := csv.NewReader(strings.NewReader(body)).ReadAll()
			if err != nil || name != tb.Name+":" || !reflect.DeepEqual(records, append([][]string{tb.Columns}, tb.Rows...)) {
				t.Errorf("%v: -csv block %d (%q, err %v) is not table %q", args, i, name, err, tb.Name)
			}
		}
	}
}
