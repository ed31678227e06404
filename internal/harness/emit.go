package harness

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// WriteCSV emits a header line plus one CSV record per row.  Non-finite
// floats are written as NaN/+Inf/-Inf, which strconv.ParseFloat reads back
// exactly.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	cols := columns()
	if err := cw.Write(Header()); err != nil {
		return err
	}
	rec := make([]string, len(cols))
	for i := range rows {
		for j, c := range cols {
			rec[j] = formatValue(c.kind, c.get(&rows[i]))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSONL emits one JSON object per row, keys in schema order.  JSON has
// no NaN/Inf literals, so non-finite floats are emitted as null.
func WriteJSONL(w io.Writer, rows []Row) error {
	bw := bufio.NewWriter(w)
	cols := columns()
	for i := range rows {
		for j, c := range cols {
			if j == 0 {
				bw.WriteByte('{')
			} else {
				bw.WriteByte(',')
			}
			key, _ := json.Marshal(c.name)
			bw.Write(key)
			bw.WriteByte(':')
			if err := writeJSONValue(bw, c.kind, c.get(&rows[i])); err != nil {
				return err
			}
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

func writeJSONValue(w *bufio.Writer, k kind, v any) error {
	switch k {
	case kString:
		b, err := json.Marshal(v.(string))
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	case kBool:
		_, err := w.WriteString(strconv.FormatBool(v.(bool)))
		return err
	case kFloat:
		f := v.(float64)
		if !isFinite(f) {
			_, err := w.WriteString("null")
			return err
		}
		_, err := w.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		return err
	default:
		_, err := w.WriteString(formatValue(k, v))
		return err
	}
}

// Table is a small helper for rendering paper-style text tables from rows:
// tab-separated cells aligned by a tabwriter.
type Table struct {
	tw *tabwriter.Writer
}

// NewTable starts a table on w with the given column titles.
func NewTable(w io.Writer, titles ...string) *Table {
	t := &Table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
	t.Line(titles...)
	return t
}

// Line appends one table line from pre-formatted cells.
func (t *Table) Line(cells ...string) {
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

// Flush renders the accumulated lines.
func (t *Table) Flush() { t.tw.Flush() }

// F formats any value compactly for a table cell.
func F(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'f', 2, 64)
	case string:
		return x
	default:
		return fmt.Sprint(v)
	}
}
