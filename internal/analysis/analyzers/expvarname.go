package analyzers

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"

	"eventcap/internal/analysis"
)

// ExpvarnameMarker suppresses an expvarname finding when it appears,
// with a reason, on the flagged line or the line above.
const ExpvarnameMarker = "expvarname:ok"

// metricNameRE is the eventcap metric naming schema: lowercase
// dot-separated segments, each starting with a letter, using only
// [a-z0-9_]. Examples: sim.miss.asleep, pool.jobs.enqueued,
// sim.battery.frac_sum.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// metricSubsystems is the closed set of first segments a metric name
// may use. Dashboards group by this prefix, so a typo'd or ad-hoc
// subsystem silently forks the dashboard tree. Adding a real subsystem
// means adding it here (one line) in the same PR that introduces it.
var metricSubsystems = map[string]bool{
	"sim":   true, // engine counters: events, captures, fallbacks, batteries
	"pool":  true, // worker-pool gauges and latency histograms
	"trace": true, // flight-recorder dump reasons and ring stats
	"cache": true, // policy/plan cache hit rates
	"core":  true, // PI solver work: evaluations, closed-form tails, horizon caps
	"span":  true, // phase-span tracer lifecycle (span.begun, span.ended)
	"runs":  true, // run registry for the /debug/runs dashboard
	"stats": true, // streaming-estimator surface (stats.qom.mean, …)
}

// metricConstructors are the entry points that register a metric (or a
// metric-backed object, like a flight-recorder dump reason) under the
// given name, per package.
var metricConstructors = []struct {
	pkg  string
	name string
}{
	{"internal/obs", "NewCounter"},
	{"internal/obs", "NewGauge"},
	{"internal/obs", "NewFloatCounter"},
	{"internal/obs", "NewCounterVec"},
	{"internal/obs", "NewDurationHist"},
	{"internal/obs", "NewFloatGauge"},
	{"internal/trace", "NewDumpReason"},
}

// Expvarname checks every metric registration against the eventcap
// naming schema. All metrics surface in one expvar map under
// /debug/vars; dashboards and the run-manifest Diff keys are built from
// these strings, so a stray uppercase letter or hyphen becomes a
// permanent dashboard migration. Names must be string literals — a
// computed name cannot be schema-checked statically and defeats
// grep-ability — must match ^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$, and
// must open with a known subsystem segment (metricSubsystems).
var Expvarname = &analysis.Analyzer{
	Name: "expvarname",
	Doc: "obs metric names must be string literals matching the eventcap schema " +
		"(lowercase dot-separated [a-z0-9_] segments, known subsystem prefix); " +
		"suppress with // expvarname:ok <reason>",
	Run: runExpvarname,
}

func runExpvarname(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			matched := false
			for _, ctor := range metricConstructors {
				if pass.CalleeIn(call, ctor.pkg, ctor.name) {
					matched = true
					break
				}
			}
			if !matched {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			lit, ok := arg.(*ast.BasicLit)
			if !ok {
				if !pass.Justified(call.Pos(), ExpvarnameMarker) {
					pass.Reportf(arg.Pos(), "metric name is not a string literal: computed names cannot be schema-checked or grepped (// %s <reason> to suppress)", ExpvarnameMarker)
				}
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !metricNameRE.MatchString(name) {
				if !pass.Justified(call.Pos(), ExpvarnameMarker) {
					pass.Reportf(lit.Pos(), "metric name %q violates the eventcap schema %s (// %s <reason> to suppress)", name, metricNameRE.String(), ExpvarnameMarker)
				}
				return true
			}
			if sub, _, _ := strings.Cut(name, "."); !metricSubsystems[sub] && !pass.Justified(call.Pos(), ExpvarnameMarker) {
				pass.Reportf(lit.Pos(), "metric name %q uses unknown subsystem %q: add it to metricSubsystems in expvarname.go or pick an existing prefix (// %s <reason> to suppress)", name, sub, ExpvarnameMarker)
			}
			return true
		})
	}
	return nil
}
