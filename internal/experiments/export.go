package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mdworm/internal/plot"
)

// WriteCSV renders the table as machine-readable CSV: one row per point
// with the series name, x value, every metric column, and the saturation
// flag.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"experiment", "series", t.XLabel}
	for _, m := range t.Metrics {
		header = append(header, m.Name)
	}
	header = append(header, "saturated", "ops_completed", "error")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range t.Series {
		for _, p := range s.Points {
			row := []string{t.ID, s.Name, formatFloat(p.X)}
			if p.Err != nil {
				for range t.Metrics {
					row = append(row, "")
				}
				row = append(row, "", "", p.Err.Error())
			} else {
				for _, m := range t.Metrics {
					row = append(row, formatFloat(m.Get(p.Results)))
				}
				// A collective's completed reps count as its ops.
				opsCompleted := p.Results.Multicast.OpsCompleted + p.Results.Unicast.OpsCompleted
				if c := p.Results.Collective; c != nil {
					opsCompleted += c.Completed
				}
				row = append(row,
					strconv.FormatBool(p.Results.Saturated),
					strconv.FormatInt(opsCompleted, 10),
					"")
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Plot renders the table's first metric as an ASCII chart, one curve per
// series (points with errors are dropped).
func (t *Table) Plot(w io.Writer) {
	if len(t.Metrics) == 0 {
		return
	}
	m := t.Metrics[0]
	c := plot.Chart{
		Title:  fmt.Sprintf("%s: %s", t.ID, t.Title),
		XLabel: t.XLabel,
		YLabel: m.Name,
	}
	for _, s := range t.Series {
		ps := plot.Series{Name: s.Name}
		for _, p := range s.Points {
			if p.Err != nil {
				continue
			}
			ps.X = append(ps.X, p.X)
			ps.Y = append(ps.Y, m.Get(p.Results))
		}
		if len(ps.X) > 0 {
			c.Series = append(c.Series, ps)
		}
	}
	c.Render(w)
}

// WriteAllCSV writes several tables back to back with blank separators.
func WriteAllCSV(w io.Writer, tables []*Table) error {
	for i, t := range tables {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
