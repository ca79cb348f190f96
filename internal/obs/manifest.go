package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"eventcap/internal/stats"
)

// ManifestSchema identifies the manifest format; bump on breaking field
// changes. v4 adds the optional streaming-statistics block (QoM CI and
// early-stop decision); v3 added the phase-breakdown and journal
// fields; v2 added the trace block. All predecessors remain readable.
const ManifestSchema = "eventcap/run-manifest/v4"

// ManifestSchemaV3 is the previous schema version, still accepted by
// ReadManifest (v4 only adds optional fields).
const ManifestSchemaV3 = "eventcap/run-manifest/v3"

// ManifestSchemaV2 is the schema version before v3, still accepted by
// ReadManifest.
const ManifestSchemaV2 = "eventcap/run-manifest/v2"

// ManifestSchemaV1 is the original schema version, still accepted by
// ReadManifest.
const ManifestSchemaV1 = "eventcap/run-manifest/v1"

// ManifestConfig is the experiment configuration block: everything
// needed to reproduce the CSV bit-for-bit (together with the binary
// version).
type ManifestConfig struct {
	Slots   int64  `json:"slots"`
	Seed    uint64 `json:"seed"`
	Quick   bool   `json:"quick"`
	Workers int    `json:"workers"`
	// Engine is the engine *requested* (auto/kernel/reference); the
	// engines actually used are in the metrics block
	// (sim.runs.kernel / sim.runs.reference).
	Engine string `json:"engine"`
}

// Manifest is the JSON sidecar written next to every experiment CSV: a
// reproducibility and audit record tying the output bytes to the exact
// configuration, code version, and the energy accounting behind the
// figure.
type Manifest struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Title      string `json:"title,omitempty"`

	// CSV is the sibling output file (base name) and CSVSHA256 its
	// content hash at write time.
	CSV       string `json:"csv"`
	CSVSHA256 string `json:"csv_sha256"`

	Config       ManifestConfig `json:"config"`
	ConfigDigest string         `json:"config_digest"`

	StartedAt  string `json:"started_at"`
	WallMillis int64  `json:"wall_ms"`

	GoVersion     string `json:"go_version"`
	BinaryVersion string `json:"binary_version"`

	// Metrics is the experiment's share of the run-level counters
	// ("sim." prefix): events, captures, the miss decomposition, battery
	// occupancy, and kernel fast-forward work. Captures + miss.asleep +
	// miss.noenergy always equals events.
	Metrics map[string]float64 `json:"metrics"`
	// Process is the experiment's share of the process-level counters
	// ("cache.", "core." and "pool." prefixes): policy-cache hits, the
	// PI solver's evaluations and horizon caps, worker-pool health.
	Process map[string]float64 `json:"process"`

	// Profiles points at pprof files recorded during the run, when
	// profiling was requested. Profiles cover the whole process run, not
	// just this experiment.
	Profiles map[string]string `json:"profiles,omitempty"`

	// Trace describes the slot-level trace captured alongside the CSV,
	// when tracing was requested (schema v2).
	Trace *TraceInfo `json:"trace,omitempty"`

	// Phases is the run's span breakdown — where the wall time went,
	// phase by phase (schema v3). See Span.Breakdown.
	Phases *Phase `json:"phases,omitempty"`

	// Journal is the base name of the run journal holding this run's
	// wide-event record, when one was written (schema v3).
	Journal string `json:"journal,omitempty"`

	// Stats is the run's streaming QoM report — point estimate,
	// confidence interval, truncation — pooled over the experiment's
	// sim runs when there were several (schema v4).
	Stats *stats.Report `json:"stats,omitempty"`

	// EarlyStop records the CI-targeted early-stop decision when the run
	// used one (schema v4).
	EarlyStop *EarlyStopInfo `json:"early_stop,omitempty"`
}

// EarlyStopInfo mirrors sim.StopDecision for the manifest (obs cannot
// import sim): the monitor's inputs, the replication count the run
// settled on, and the relative half-width it reached. Stopped is false
// when the run exhausted its replication budget instead.
type EarlyStopInfo struct {
	TargetRelHW  float64 `json:"target_rel_hw"`
	MinReps      int     `json:"min_reps"`
	MaxReps      int     `json:"max_reps"`
	Reps         int     `json:"reps"`
	RelHalfWidth float64 `json:"rel_half_width"`
	Stopped      bool    `json:"stopped"`
}

// TraceInfo ties a manifest to its trace file: cmd/tracetool's replay
// subcommand re-derives the metrics block from the trace named here and
// verifies both the hash and the totals.
type TraceInfo struct {
	// File is the trace's base name (sibling of the manifest, like CSV).
	File string `json:"file"`
	// SHA256 is the content hash of the complete trace file.
	SHA256 string `json:"sha256"`
	// Mode records what was attached: "full", "flight", or "full+flight".
	Mode string `json:"mode"`
	// Runs/Records/Spans are the writer's frame counts, for quick sanity
	// checks without opening the trace.
	Runs    int64 `json:"runs"`
	Records int64 `json:"records"`
	Spans   int64 `json:"spans"`
}

// FilterPrefix returns the subset of snap whose keys start with any of
// the given prefixes (for carving Snapshot diffs into manifest blocks).
func FilterPrefix(snap map[string]float64, prefixes ...string) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range snap {
		for _, p := range prefixes {
			if len(k) >= len(p) && k[:len(p)] == p {
				out[k] = v
				break
			}
		}
	}
	return out
}

// Write marshals the manifest to path with a trailing newline.
func (m *Manifest) Write(path string) error {
	if m.Schema == "" {
		m.Schema = ManifestSchema
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling manifest: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and validates a manifest written by Write.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest %s: %w", path, err)
	}
	switch m.Schema {
	case ManifestSchema, ManifestSchemaV3, ManifestSchemaV2, ManifestSchemaV1:
	default:
		return nil, fmt.Errorf("obs: manifest %s has schema %q, want %q, %q, %q or %q",
			path, m.Schema, ManifestSchema, ManifestSchemaV3, ManifestSchemaV2, ManifestSchemaV1)
	}
	return &m, nil
}

// SHA256Hex returns the lowercase hex SHA-256 of data.
func SHA256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// GoVersion returns the running toolchain version.
func GoVersion() string { return runtime.Version() }

// BinaryVersion identifies the built binary: the VCS revision when the
// build embedded one (plus a "+dirty" marker), otherwise the main
// module's version, otherwise "unknown".
func BinaryVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + modified
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "devel"
}
