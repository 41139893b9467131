package cli

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"bruck/internal/mpsim"
)

func TestPickFormat(t *testing.T) {
	cases := []struct {
		csv, js bool
		want    Format
		wantErr bool
	}{
		{false, false, FormatTable, false},
		{true, false, FormatCSV, false},
		{false, true, FormatJSON, false},
		{true, true, FormatTable, true},
	}
	for _, c := range cases {
		got, err := PickFormat(c.csv, c.js)
		if (err != nil) != c.wantErr {
			t.Fatalf("PickFormat(%v,%v): err=%v, wantErr=%v", c.csv, c.js, err, c.wantErr)
		}
		if err == nil && got != c.want {
			t.Fatalf("PickFormat(%v,%v)=%v, want %v", c.csv, c.js, got, c.want)
		}
	}
}

func TestTableRenderText(t *testing.T) {
	tb := &Table{Name: "demo", Columns: []string{"bytes", "cost"}}
	tb.AddRow("1", "10")
	tb.AddRow("1024", "7")
	var sb strings.Builder
	if err := tb.Render(&sb, FormatTable); err != nil {
		t.Fatal(err)
	}
	want := "bytes  cost\n" +
		"    1    10\n" +
		" 1024     7\n"
	if sb.String() != want {
		t.Fatalf("text render:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := &Table{Name: "demo", Columns: []string{"bytes", "r=2"}}
	tb.AddRow("8", "a,b")
	var sb strings.Builder
	if err := tb.Render(&sb, FormatCSV); err != nil {
		t.Fatal(err)
	}
	want := "bytes,r=2\n8,a;b\n"
	if sb.String() != want {
		t.Fatalf("csv render: %q, want %q", sb.String(), want)
	}
}

func TestTableRenderJSONRoundTrip(t *testing.T) {
	tb := KV("summary")
	tb.Add("n", 16)
	tb.Add("C1", 4)
	var sb strings.Builder
	if err := tb.Render(&sb, FormatJSON); err != nil {
		t.Fatal(err)
	}
	var got []Table
	dec := json.NewDecoder(strings.NewReader(sb.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("decode JSON render: %v", err)
	}
	if len(got) != 1 || got[0].Name != "summary" {
		t.Fatalf("round trip: %+v", got)
	}
	if got[0].Rows[0][0] != "n" || got[0].Rows[0][1] != "16" {
		t.Fatalf("row drift: %+v", got[0].Rows)
	}
	if !strings.HasSuffix(sb.String(), "\n") {
		t.Fatal("JSON output not newline-terminated")
	}
}

func TestRenderTablesEmptyRowsIsArray(t *testing.T) {
	tb := &Table{Name: "empty", Columns: []string{"a"}}
	var sb strings.Builder
	if err := RenderTables(&sb, FormatJSON, tb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "null") {
		t.Fatalf("empty rows rendered as null:\n%s", sb.String())
	}
}

func TestTableValidateRowShape(t *testing.T) {
	tb := &Table{Name: "bad", Columns: []string{"a", "b"}}
	tb.AddRow("only-one")
	if err := tb.Render(io.Discard, FormatTable); err == nil {
		t.Fatal("mismatched row width accepted")
	}
}

func TestRenderTablesMultipleText(t *testing.T) {
	t1 := &Table{Name: "one", Columns: []string{"x"}, Rows: [][]string{{"1"}}}
	t2 := &Table{Name: "two", Columns: []string{"y"}, Rows: [][]string{{"2"}}}
	var sb strings.Builder
	if err := RenderTables(&sb, FormatTable, t1, t2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "one:\n") || !strings.Contains(out, "\ntwo:\n") {
		t.Fatalf("table group headers missing:\n%s", out)
	}
}

// TestTransportFlagsEngineOptions: no flag builds a plain engine,
// -chaos-seed a chaos one, and -stragglers needs -chaos-seed.
func TestTransportFlagsEngineOptions(t *testing.T) {
	engine := func(args ...string) (*mpsim.Engine, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		tf := RegisterTransportFlags(fs)
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		opts, err := tf.EngineOptions()
		if err != nil {
			return nil, err
		}
		return mpsim.New(4, opts...)
	}
	for _, c := range []struct {
		args  []string
		plain bool
	}{
		{nil, true},
		{[]string{"-chaos-seed", "7", "-stragglers", "0, 3"}, false},
	} {
		if e, err := engine(c.args...); err != nil || e.Plain() != c.plain {
			t.Errorf("%q: engine %v, want plain %v", c.args, err, c.plain)
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-stragglers", "0"}, "-stragglers requires -chaos-seed"},
		{[]string{"-chaos-seed", "7", "-stragglers", "9"}, "mpsim: chaos straggler rank 9 out of range [0,4)"},
	} {
		if _, err := engine(c.args...); err == nil || err.Error() != c.want {
			t.Errorf("%q: error %v, want %q", c.args, err, c.want)
		}
	}
}

func TestParseStragglers(t *testing.T) {
	ranks, err := ParseStragglers("0, 3,12")
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 3 || ranks[0] != 0 || ranks[1] != 3 || ranks[2] != 12 {
		t.Fatalf("ranks=%v", ranks)
	}
	if r, err := ParseStragglers(""); err != nil || r != nil {
		t.Fatalf("empty: %v %v", r, err)
	}
	if _, err := ParseStragglers("0,x"); err == nil {
		t.Fatal("bad rank accepted")
	}
}

func TestRadixFlagAlias(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	r := RadixFlag(fs, 0, "radix")
	if err := fs.Parse([]string{"-r", "4"}); err != nil {
		t.Fatal(err)
	}
	if *r != 4 {
		t.Fatalf("-r alias: got %d, want 4", *r)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	r2 := RadixFlag(fs2, 0, "radix")
	if err := fs2.Parse([]string{"-radix", "8"}); err != nil {
		t.Fatal(err)
	}
	if *r2 != 8 {
		t.Fatalf("-radix: got %d, want 8", *r2)
	}
}
