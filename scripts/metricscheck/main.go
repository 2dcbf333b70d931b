// Command metricscheck validates telemetry exports: the JSON file written
// by the cmd binaries' -metrics-out (schema in
// internal/telemetry/export.go) and the OpenMetrics/Prometheus text
// exposition served by their -debug-addr /metrics endpoint.
// scripts/ci.sh uses it to fail the smoke runs when an export is empty,
// malformed, or missing counters the pipeline must have bumped.
//
// Usage:
//
//	metricscheck [-require counter/name]... [-names-from pkg-dir]... \
//	    [-openmetrics file|-] [-scrape url] [-healthz url] [metrics.json]
//
// The JSON checks: valid version-1 schema, at least one counter and one
// span, every -require'd counter present with a positive value.
//
// The OpenMetrics checks (-openmetrics reads a file or stdin, -scrape
// fetches a live /metrics endpoint): the document parses (legal
// Prometheus identifiers, # TYPE before samples, known types, # EOF
// terminator), and every -require'd counter appears in exposition form —
// the area/sub/name → area_sub_name mapping plus the _total suffix —
// with a positive value. -healthz fetches a liveness endpoint and
// expects 200 "ok".
//
// When both a JSON export and an exposition are given they must come
// from the same registry dump: every JSON counter name is required to
// appear as an exposition family.
//
// -names-from closes the loop between code and export: it parses the Go
// files of the given package directory (go/ast, no build step), extracts
// every string literal passed as the name argument to a
// Counter/Gauge/Histogram registration, and fails when a code-emitted
// name is absent from the JSON export. Names built at runtime
// (fmt.Sprintf-built names) are invisible to the literal scan and
// are not checked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"isum/internal/telemetry"
)

// export mirrors the subset of internal/telemetry's JSON schema the
// checks need.
type export struct {
	Version    int         `json:"version"`
	Counters   []counter   `json:"counters"`
	Gauges     []gauge     `json:"gauges"`
	Histograms []histogram `json:"histograms"`
	Spans      []span      `json:"spans"`
}

type counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type histogram struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

type span struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
	Children   []span `json:"children"`
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint(*m) }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var require, namesFrom multiFlag
	flag.Var(&require, "require", "counter that must exist with a positive value (repeatable)")
	flag.Var(&namesFrom, "names-from", "package dir whose literal Counter/Gauge/Histogram names must all appear in the export (repeatable)")
	openmetrics := flag.String("openmetrics", "", "OpenMetrics exposition file to validate ('-' reads stdin)")
	scrape := flag.String("scrape", "", "URL of a live /metrics endpoint to fetch and validate as OpenMetrics")
	healthz := flag.String("healthz", "", "URL of a /healthz endpoint that must answer 200 ok")
	flag.Parse()
	if flag.NArg() > 1 ||
		(flag.NArg() == 0 && *openmetrics == "" && *scrape == "" && *healthz == "") {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-require counter]... [-names-from pkg-dir]... [-openmetrics file|-] [-scrape url] [-healthz url] [metrics.json]")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), require, namesFrom, *openmetrics, *scrape, *healthz); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	fmt.Println("metricscheck: OK")
}

func run(jsonPath string, require, namesFrom []string, openmetrics, scrape, healthz string) error {
	if healthz != "" {
		if err := checkHealthz(healthz); err != nil {
			return err
		}
	}
	var jsonEx *export
	if jsonPath != "" {
		ex, err := checkJSON(jsonPath, require, namesFrom)
		if err != nil {
			return err
		}
		jsonEx = ex
	}
	var om *omExposition
	switch {
	case openmetrics != "" && scrape != "":
		return fmt.Errorf("-openmetrics and -scrape are mutually exclusive")
	case openmetrics != "":
		ex, err := checkExpositionFile(openmetrics, require)
		if err != nil {
			return err
		}
		om = ex
	case scrape != "":
		ex, err := checkExpositionURL(scrape, require)
		if err != nil {
			return err
		}
		om = ex
	}
	if jsonEx != nil && om != nil {
		return crossCheck(jsonEx, om)
	}
	return nil
}

func checkJSON(path string, require, namesFrom []string) (*export, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ex export
	if err := json.Unmarshal(data, &ex); err != nil {
		return nil, fmt.Errorf("%s: malformed export: %w", path, err)
	}
	if ex.Version != 1 {
		return nil, fmt.Errorf("%s: version %d, want 1", path, ex.Version)
	}
	if len(ex.Counters) == 0 {
		return nil, fmt.Errorf("%s: empty export: no counters recorded", path)
	}
	if len(ex.Spans) == 0 {
		return nil, fmt.Errorf("%s: empty export: no spans recorded", path)
	}
	values := map[string]int64{}
	for _, c := range ex.Counters {
		values[c.Name] = c.Value
	}
	for _, name := range require {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("%s: required counter %q missing", path, name)
		}
		if v <= 0 {
			return nil, fmt.Errorf("%s: required counter %q is %d, want > 0", path, name, v)
		}
	}
	exported := map[string]bool{}
	for _, c := range ex.Counters {
		exported[c.Name] = true
	}
	for _, g := range ex.Gauges {
		exported[g.Name] = true
	}
	for _, h := range ex.Histograms {
		exported[h.Name] = true
	}
	for _, dir := range namesFrom {
		names, err := literalMetricNames(dir)
		if err != nil {
			return nil, fmt.Errorf("-names-from %s: %w", dir, err)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("-names-from %s: no literal metric names found; wrong directory?", dir)
		}
		var missing []string
		for _, name := range names {
			if !exported[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			return nil, fmt.Errorf("%s: metric names registered by %s missing from the export: %s",
				path, dir, strings.Join(missing, ", "))
		}
	}
	return &ex, nil
}

// checkExposition validates a parsed OpenMetrics document against the
// require list: each area/sub/name counter must appear under its
// exposition name (telemetry.MetricName + _total) with a positive value.
func checkExposition(r io.Reader, source string, require []string) (*omExposition, error) {
	om, err := parseOpenMetrics(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", source, err)
	}
	if len(om.values) == 0 {
		return nil, fmt.Errorf("%s: empty exposition: no samples", source)
	}
	for _, name := range require {
		v, ok := om.counterValue(name, telemetry.MetricName)
		if !ok {
			return nil, fmt.Errorf("%s: required counter %q (%s_total) missing from exposition",
				source, name, telemetry.MetricName(name))
		}
		if v <= 0 {
			return nil, fmt.Errorf("%s: required counter %q is %g, want > 0", source, name, v)
		}
	}
	return om, nil
}

func checkExpositionFile(path string, require []string) (*omExposition, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
		path = "stdin"
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return checkExposition(r, path, require)
}

func checkExpositionURL(url string, require []string) (*omExposition, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %s", url, resp.Status)
	}
	return checkExposition(resp.Body, url, require)
}

func checkHealthz(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	if strings.TrimSpace(string(body)) != "ok" {
		return fmt.Errorf("%s: body %q, want \"ok\"", url, strings.TrimSpace(string(body)))
	}
	return nil
}

// crossCheck requires every JSON counter to appear as an exposition
// family under its OpenMetrics name — valid only when both documents
// dump the same registry state (e.g. -metrics-out plus a post-run
// scrape of the same process).
func crossCheck(jsonEx *export, om *omExposition) error {
	var missing []string
	for _, c := range jsonEx.Counters {
		if _, ok := om.families[telemetry.MetricName(c.Name)]; !ok {
			missing = append(missing, c.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("JSON counters missing from the exposition: %s", strings.Join(missing, ", "))
	}
	return nil
}

// literalMetricNames parses the non-test Go files in dir and returns the
// sorted, deduplicated string literals passed as the first argument to
// any Counter/Gauge/Histogram call. Pure syntax — no type checking — so
// it costs nothing and cannot fail on build issues; the trade-off is
// that runtime-built names are invisible.
func literalMetricNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil {
				seen[s] = true
			}
			return true
		})
	}
	names := make([]string, 0, len(seen))
	for s := range seen {
		names = append(names, s)
	}
	sort.Strings(names)
	return names, nil
}
