package erms_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"erms"
	"erms/internal/chaos"
	"erms/internal/condor"
	"erms/internal/core"
	"erms/internal/experiments"
	"erms/internal/hdfs"
	"erms/internal/sweep"
	"erms/internal/topology"
	"erms/internal/workload"
)

// configStructs are the configuration structs a caller can fill: every
// exported struct named Options, *Config or RetryPolicy in the packages of
// configDirs.
var configStructs = []any{
	erms.Options{},
	hdfs.Config{}, hdfs.HeartbeatConfig{}, hdfs.SafeModeConfig{}, hdfs.ScrubConfig{},
	core.Config{}, core.RepairConfig{},
	condor.Config{}, condor.RetryPolicy{},
	chaos.StormConfig{},
	workload.Config{}, workload.TenantConfig{}, workload.FlashConfig{}, workload.PartialConfig{},
	topology.Config{},
	sweep.Options{},
	experiments.DegradeConfig{}, experiments.DurabilityConfig{}, experiments.FailoverConfig{},
	experiments.Fig3Config{}, experiments.Fig5Config{}, experiments.Fig6Config{}, experiments.Fig7Config{},
	experiments.Fig89Config{}, experiments.ScaleConfig{}, experiments.ScenarioConfig{},
	experiments.ThresholdSweepConfig{},
}

var configDirs = []string{".", "internal/hdfs", "internal/core", "internal/condor", "internal/chaos",
	"internal/workload", "internal/topology", "internal/sweep", "internal/experiments"}

// TestConfigSurface pins every settable configuration value, one
// "package.Type.Field type" line per exported field of configStructs, in
// testdata/config_fields.golden (-update rewrites it), so a new knob shows
// up as a diff. It fails on a configuration struct declared in configDirs
// that configStructs does not list, or one listed that is gone.
func TestConfigSurface(t *testing.T) {
	var listed, lines []string
	for _, v := range configStructs {
		typ := reflect.TypeOf(v)
		listed = append(listed, typ.String())
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				lines = append(lines, typ.String()+"."+f.Name+" "+f.Type.String())
			}
		}
	}
	slices.Sort(listed)
	if declared := declaredConfigStructs(t); !slices.Equal(declared, listed) {
		t.Errorf("configuration structs declared:\n%v\nlisted in configStructs:\n%v", declared, listed)
	}

	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/config_fields.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("configuration fields differ from %s (rerun with -update after a deliberate change):\n%s", golden, got)
	}
}

// declaredConfigStructs returns "package.Type" for every exported struct
// type named Options, *Config or RetryPolicy in the non-test files of
// configDirs, sorted.
func declaredConfigStructs(t *testing.T) []string {
	var names []string
	fset := token.NewFileSet()
	for _, dir := range configDirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					return true
				}
				name := ts.Name.Name
				if _, isStruct := ts.Type.(*ast.StructType); isStruct &&
					(name == "Options" || name == "RetryPolicy" || strings.HasSuffix(name, "Config")) {
					names = append(names, f.Name.Name+"."+name)
				}
				return true
			})
		}
	}
	slices.Sort(names)
	return names
}
