package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promNamespace prefixes every exposed metric family, keeping the
// exposition collision-free against other exporters on the same scrape
// target.
const promNamespace = "paracrash_"

// SanitizeMetricName maps a registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_]: every other rune (the registry's slashes, dashes,
// dots) becomes an underscore, and a leading digit gains one. Distinct
// registry names can collide after sanitization ("a/b" and "a-b" both map
// to "a_b"); the registry's naming convention keeps them apart in
// practice, and colliding series merge in the exposition.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFamily returns the full exposition family name of a sample:
// namespace + sanitized registry name, with the conventional _total suffix
// on counters.
func promFamily(m Metric) string {
	name := promNamespace + SanitizeMetricName(m.Name)
	if m.Kind == KindCounter && !strings.HasSuffix(name, "_total") {
		name += "_total"
	}
	return name
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format (backslash, double quote, newline).
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders a sampled batch in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per family, the
// fleet series (no labels) first, then per-job series labeled
// job="<id>". The batch is expected sorted by (name, job) — Router.Sample
// output — which makes family grouping and series ordering stable across
// scrapes.
func WritePrometheus(w io.Writer, batch []Metric) error {
	lastFamily := ""
	for _, m := range batch {
		fam := promFamily(m)
		if fam != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, m.Kind); err != nil {
				return err
			}
			lastFamily = fam
		}
		var err error
		if m.Job == "" {
			_, err = fmt.Fprintf(w, "%s %s\n", fam, formatValue(m.Value))
		} else {
			_, err = fmt.Fprintf(w, "%s{job=\"%s\"} %s\n", fam, escapeLabelValue(m.Job), formatValue(m.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// promContentType is the text exposition content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromHandler returns an http.Handler serving the router's current sample
// in the Prometheus text exposition format. Each scrape is one synchronous
// Sample (atomic reads under short locks), so scraping can never stall or
// skew a run.
func (rt *Router) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		_ = WritePrometheus(w, rt.Sample())
	})
}

// formatValue renders a metric value without float noise: integral values
// (the common case — counters and gauges) print as integers.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
