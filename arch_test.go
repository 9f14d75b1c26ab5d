package apspark

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// archRule bounds the lines of some of the module's Go files that match a
// pattern.
type archRule struct {
	// files selects the files the rule reads, by slash-separated path from
	// the repository root.
	files func(path string) bool
	re    string
	// max is how many matching lines the files may hold between them.
	max int
	// outside, when set, counts a matching line only when the function
	// declaration above it in its file does not start with outside.
	outside string
}

// archChecks are the repository's "one X" invariants: each names the one
// place a decision lives and fails when a second one appears.
var archChecks = []struct {
	name  string
	rules []archRule
}{
	{"one LRU (container/list only under internal/cache)", []archRule{
		{files: func(p string) bool { return !archUnder(p, "internal/cache") }, re: `container/list`},
	}},
	{"one driver (context binding, purity and unit reports only in core/driver.go)", []archRule{
		{files: func(p string) bool { return archCode(p, "internal/core") && p != "internal/core/driver.go" }, re: `BindContext\(|MarkImpure\(|ReportUnit\(`},
	}},
	{"one job contract (host progress events and verification only in job.go, besides SequentialAPSP)", []archRule{
		{files: func(p string) bool { return archCode(p, ".") && p != "job.go" && p != "apspark.go" }, re: `StageEvent\{|seq\.FloydWarshall\(`},
	}},
	// Every file the repository publishes goes through fsx.Pending (create
	// beside the target, commit by fsync + rename + directory fsync).
	{"one publish path (temp files and renames only in internal/fsx)", []archRule{
		{files: func(p string) bool { return archCode(p, "") && !archUnder(p, "internal/fsx") }, re: `os\.(CreateTemp|Rename)\(`},
	}},
	// Callers hand the engine a store writer (sparse.Sink) and never pick a
	// panel's cell type or pass its read-back by hand.
	{"one cell-type decision (uint32 or float64 panels, and the seed read-back, chosen only inside sparse.Engine.SolveTo)", []archRule{
		{files: func(p string) bool {
			return archCode(p, "") && !archUnder(p, "internal/sparse") && !archUnder(p, "internal/store")
		}, re: `WriteCells\(|IntDistances|ReadBack\(`},
	}},
	{"one Dijkstra (one radix-heap loop under every single-source solve in internal/sparse)", []archRule{
		{files: archCodeIn("internal/sparse"), re: `dialState|rowSolver|newDialGraph`},
		{files: archCodeIn("internal/sparse"), re: `\.pop\(\)`, max: 1},
	}},
	{"one ivarint encoder (every varint through one token writer)", []archRule{
		{files: archCodeIn("internal/store"), re: `binary\.(AppendUvarint|PutUvarint)\(`, max: 1},
	}},
	{"one ivarint decoder (rows, tiles and read-back tiles decode every varint through one group decoder, its eight-token word step included)", []archRule{
		{files: archCodeIn("internal/store"), re: `binary\.Uvarint\(`, max: 1},
	}},
	{"one record type (RDD records are graph.BlockKey-keyed and size themselves; no key assertions, no sizer hook)", []archRule{
		{files: archCodeIn("internal/core"), re: `\.Key\.\(`},
		{files: archCodeIn("internal/rdd"), re: `SizeFunc|Key +any`},
	}},
	{"one keyed grouping (Blocked-IM pairs blocks through rdd.GroupByKey; no combiner API, no ListAppend list type)", []archRule{
		{files: archCodeIn("internal/rdd"), re: `CombineByKey|foldByKey`},
		{files: archCodeIn("internal/core"), re: `blockList|ListAppend(Create|Merge)`},
	}},
	{"one response writer (query answers are appended by hand in internal/serve; encoding/json encodes only through writeJSON)", []archRule{
		{files: archCodeIn("internal/serve"), re: `MarshalJSON|writeJSONSized|jsonRowEstBytes`},
		{files: archCodeIn("internal/serve"), re: `json\.NewEncoder\(`, outside: "func writeJSON("},
	}},
	{"one encoder per codec (float64 and uint32 cells through one body each, no float scratch tile)", []archRule{
		{files: func(p string) bool { return archUnder(p, "internal/store") }, re: `floatTile|appendRawInts|appendFloatTokens|decodeIntTile|func encodeTile`},
	}},
	// A codec is the byte its tiles' index entries record: each per-codec
	// decision is one switch on store.Codec in codec.go.
	{"one codec switch (no Codec interface, no codec table, no per-codec type)", []archRule{
		{files: func(p string) bool { return archUnder(p, "internal/store") }, re: `type Codec interface|codecs\[|type (raw|ivarint|f32)Codec\b`},
	}},
	// The four CRC32C lines of internal/store: the writer's per-tile sum,
	// the ivarint encoder's and decoder's restart-group sums, and
	// checkTile, the one check of a whole tile's bytes (read back by the
	// store, the panel writer and checkpoint resume, or copied by the
	// raw-panel path).
	{"one checked tile read (whole tiles are held to their CRC32C only in checkTile)", []archRule{
		{files: archCodeIn("internal/store"), re: `crc32\.Checksum\(`, max: 4},
	}},
	// Every producer of distances is tested against seq.Reference, an
	// edge relaxation that shares no code with any engine.
	{"one distance reference (no fwRef helper, no seq.Dijkstra; tests call seq.Reference)", []archRule{
		{files: func(p string) bool { return true }, re: `func fwRef\(|seq\.Dijkstra`},
	}},
	// A checkpoint is the partial store itself: its own tile index, written
	// after each durable panel, is the one record of what was written.
	{"one checkpoint record (the partial store's tile index; internal/store imports no encoding/json and names no .manifest)", []archRule{
		{files: archCodeIn("internal/store"), re: `"encoding/json"|\.manifest`},
	}},
}

// archUnder reports whether path lies in dir or below it.
func archUnder(path, dir string) bool { return strings.HasPrefix(path, dir+"/") }

// archCode reports whether path is a non-test file in dir or below it: ""
// is the whole repository, "." its root directory alone.
func archCode(path, dir string) bool {
	if strings.HasSuffix(path, "_test.go") {
		return false
	}
	switch dir {
	case "":
		return true
	case ".":
		return !strings.Contains(path, "/")
	}
	return archUnder(path, dir)
}

// archCodeIn selects the non-test files in dir or below it.
func archCodeIn(dir string) func(string) bool { return func(p string) bool { return archCode(p, dir) } }

// TestArchitecture holds every Go file of the repository — the benchmark
// module's too, tests included where a check reads them — to archChecks.
// This file, which spells out every pattern, is the one it skips.
func TestArchitecture(t *testing.T) {
	files := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || path == "arch_test.go":
			return nil
		}
		b, err := os.ReadFile(path)
		files[filepath.ToSlash(path)] = strings.Split(string(b), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("found %d Go files; run from the repository root", len(files))
	}
	for _, check := range archChecks {
		t.Run(check.name, func(t *testing.T) {
			for _, rule := range check.rules {
				re := regexp.MustCompile(rule.re)
				var hits []string
				for path, lines := range files {
					if !rule.files(path) {
						continue
					}
					fn := ""
					for i, line := range lines {
						if strings.HasPrefix(line, "func ") {
							fn = line
						}
						if re.MatchString(line) && (rule.outside == "" || !strings.HasPrefix(fn, rule.outside)) {
							hits = append(hits, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
						}
					}
				}
				if slices.Sort(hits); len(hits) > rule.max {
					t.Errorf("%d lines match %q, at most %d may:\n%s", len(hits), rule.re, rule.max, strings.Join(hits, "\n"))
				}
			}
		})
	}
}
