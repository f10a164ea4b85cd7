package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promName maps a dotted registry name onto the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*): dots become underscores.
func promName(name string) string { return strings.ReplaceAll(name, ".", "_") }

// promEscape escapes a label value for the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders a sorted label set (plus an optional quantile) as
// {k="v",...}, or "" when empty.
func promLabels(labels []Label, quantile string) string {
	if len(labels) == 0 && quantile == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteByte('"')
	}
	if quantile != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`quantile="`)
		b.WriteString(quantile)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes a snapshot in the Prometheus text exposition
// format. Counters and gauges map directly; histograms are exposed as
// summaries — p50/p90/p99/p999 quantile samples plus _sum and _count —
// rather than as their ~2k raw buckets, keeping a many-shard scrape small
// while preserving the tails the SLO questions ask about.
func WritePrometheus(w io.Writer, snap []Metric) error {
	bw := bufio.NewWriter(w)
	lastTyped := ""
	for _, m := range snap {
		name := promName(m.Name)
		if name != lastTyped {
			typ := "counter"
			switch m.Kind {
			case KindGauge:
				typ = "gauge"
			case KindHistogram:
				typ = "summary"
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
			lastTyped = name
		}
		switch m.Kind {
		case KindHistogram:
			for _, q := range [...]struct {
				tag string
				v   float64
			}{{"0.5", m.P50}, {"0.9", m.P90}, {"0.99", m.P99}, {"0.999", m.P999}} {
				fmt.Fprintf(bw, "%s%s %s\n", name, promLabels(m.Labels, q.tag), formatFloat(q.v))
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", name, promLabels(m.Labels, ""), formatFloat(m.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", name, promLabels(m.Labels, ""), m.Count)
		default:
			fmt.Fprintf(bw, "%s%s %d\n", name, promLabels(m.Labels, ""), m.Value)
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParsePrometheus validates a text exposition: every non-comment line must
// be `name[{label="value",...}] value`, names and label keys must follow the
// Prometheus grammar, and values must parse as floats. Returns the number
// of samples parsed. This is the gate cmd/taurus-promcheck applies to a
// live scrape in CI — an endpoint that emits an unparseable line fails the
// build, not the first dashboard that points at it.
func ParsePrometheus(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := parseSample(line); err != nil {
			return samples, fmt.Errorf("obs: exposition line %d: %w (%q)", lineNo, err, line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("obs: exposition holds no samples")
	}
	return samples, nil
}

// parseSample validates one `name[{labels}] value` line.
func parseSample(line string) error {
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return fmt.Errorf("missing metric name")
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabelSet(rest[1:]); err != nil {
			return err
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return fmt.Errorf("missing sample value")
	}
	// A timestamp may trail the value; validate the value field only.
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		rest = rest[:sp]
	}
	if _, err := strconv.ParseFloat(rest, 64); err != nil {
		return fmt.Errorf("bad sample value: %v", err)
	}
	return nil
}

// parseLabelSet validates `key="value",...}`, a label set after its `{`, and
// returns what follows the closing brace. A value is scanned honouring
// escapes, so a `}`, `,` or `=` inside the quotes is part of it.
func parseLabelSet(s string) (string, error) {
	for {
		if s == "" {
			return "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return "", fmt.Errorf("bad label pair %q", s)
		}
		key := s[:eq]
		for j := 0; j < len(key); j++ {
			if !isNameChar(key[j], j == 0) {
				return "", fmt.Errorf("bad label name %q", key)
			}
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("label %q value not quoted", key)
		}
		j := 1
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(s) {
			return "", fmt.Errorf("label %q value unterminated", key)
		}
		s = s[j+1:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if s != "" && s[0] != '}' {
			return "", fmt.Errorf("trailing garbage after label %q", key)
		}
	}
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
