package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrometheusRoundTrip writes a populated registry and feeds the output
// back through the validator — the same gate CI applies to a live scrape.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("taurus.device.processed", L("pipe", "0"), L("shard", "1")).Add(42)
	r.Gauge("taurus.fleet.members").Set(3)
	h := r.Histogram("taurus.device.service_ns", L("shard", "0"))
	for i := 1; i <= 100; i++ {
		h.Record(float64(i * 10))
	}
	r.Counter("taurus.ctl.drifts", L("ctl", "0")) // zero-valued: still exposed

	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE taurus_device_processed counter",
		"# TYPE taurus_fleet_members gauge",
		"# TYPE taurus_device_service_ns summary",
		`taurus_device_processed{pipe="0",shard="1"} 42`,
		`taurus_device_service_ns{shard="0",quantile="0.5"}`,
		`taurus_device_service_ns{shard="0",quantile="0.999"}`,
		`taurus_device_service_ns_count{shard="0"} 100`,
		`taurus_ctl_drifts{ctl="0"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	n, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	// 1 counter + 1 gauge + (4 quantiles + sum + count) + 1 counter = 9.
	if n != 9 {
		t.Fatalf("parsed %d samples, want 9", n)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value\n",
		"1leading_digit 3\n",
		"m{unterminated=\"x\n",
		"m{key=unquoted} 1\n",
		"m{=\"v\"} 1\n",
		"m nota_number\n",
		"",                      // no samples at all
		"# TYPE only comment\n", // comments but no samples
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", bad)
		}
	}
	// Valid corner cases must pass.
	for _, ok := range []string{
		"m 1\n",
		"m{a=\"b\"} 1.5e-3\n",
		"m{a=\"quo\\\"te\"} 2 1712345678\n", // escaped quote + timestamp
		"m:colon_name 3\nother NaN\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(ok)); err != nil {
			t.Errorf("ParsePrometheus rejected %q: %v", ok, err)
		}
	}
}

// promRoundTrip registers one of each instrument under label values the
// caller chose — as Fleet.Register puts a member's name into a member=""
// label — writes the exposition and requires it to parse back with one
// sample per counter or gauge and six per histogram.
func promRoundTrip(t *testing.T, member, shard string) {
	t.Helper()
	r := NewRegistry()
	r.Counter("taurus.fleet.pushes", L("member", member)).Add(1)
	r.Gauge("taurus.fleet.epoch", L("member", member), L("shard", shard)).Set(7)
	r.Histogram("taurus.device.service_ns", L("shard", shard)).Record(42)
	snap := r.Snapshot()
	want := 0
	for _, m := range snap {
		if m.Kind == KindHistogram {
			want += 6
		} else {
			want++
		}
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, snap); err != nil {
		t.Fatal(err)
	}
	n, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, sb.String())
	}
	if n != want {
		t.Fatalf("parsed %d samples, want %d:\n%s", n, want, sb.String())
	}
}

// A label value may hold anything: the parser must not end the label set at
// a brace, comma or equals sign inside the quotes, nor at an escaped quote,
// backslash or newline.
func TestPrometheusRoundTripHostileLabelValues(t *testing.T) {
	for _, v := range []string{
		"rack}3", "a,b", "k=v", `say "hi"`, `back\slash`, "two\nlines",
		`}",x="`, `\`, `\"}`, "",
	} {
		promRoundTrip(t, v, v+"}")
	}
}

// FuzzPrometheus: the validator never panics on arbitrary bytes, and an
// exposition this package wrote parses back whole, whatever the label values.
func FuzzPrometheus(f *testing.F) {
	f.Add([]byte("m{a=\"b\"} 1\n"), "rack}3", `a\"b`)
	f.Add([]byte("m{a=\"}\",b=\"\\\\\"} 2 1712345678\n# TYPE m counter\n"), "two\nlines", "k=v,")
	f.Add([]byte("m{a=\"x\\"), "", `\`)
	f.Fuzz(func(t *testing.T, raw []byte, member, shard string) {
		ParsePrometheus(bytes.NewReader(raw))
		promRoundTrip(t, member, shard)
	})
}

func TestPromEscape(t *testing.T) {
	got := promLabels([]Label{L("k", "a\"b\\c\nd")}, "")
	want := `{k="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("promLabels = %s, want %s", got, want)
	}
}
