package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobisense"
)

// TestRunFlags: run rejects a bad flag and a command line without store
// arguments with exit code 2 and a message on stderr, and prints usage
// for -h with exit code 0.
func TestRunFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"help", []string{"-h"}, 0, "-watch"},
		{"no stores", nil, 2, "usage: report"},
		{"flags but no stores", []string{"-runs"}, 2, "usage: report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) || stdout.Len() != 0 {
				t.Errorf("stdout %q, stderr %q; want stderr to contain %q", stdout.String(), stderr.String(), tc.stderr)
			}
		})
	}
}

// TestRunPreSpecStores: stores written before field specs existed (name-
// only manifests without axes, testdata/preaxis) still load alone and
// merge as shards, and -fields says they carry no specs.
func TestRunPreSpecStores(t *testing.T) {
	shard := func(i string) string { return filepath.Join("..", "..", "testdata", "preaxis", "shard"+i) }
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"one shard", []string{shard("0")}, []string{"shard 0/2", "floor"}},
		{"merged shards", []string{shard("0"), shard("1")}, []string{"shard 0/2", "shard 1/2", "floor"}},
		{"fields", []string{"-fields", shard("0")}, []string{"predates"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

// TestRunAxisCSVColumns: -csv names one axis_<name> column per swept
// axis, numeric and string-valued alike, and writes string values as
// they are.
func TestRunAxisCSVColumns(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		scheme mobisense.Scheme
		axes   []mobisense.ParamAxis
		want   []string
	}{
		{"rc x ttl", mobisense.SchemeFLOOR,
			[]mobisense.ParamAxis{mobisense.AxisRc(50, 60), mobisense.AxisFloorTTL(4, 6)},
			[]string{"axis_rc,axis_floor.ttl"}},
		{"osc", mobisense.SchemeCPVF,
			[]mobisense.ParamAxis{mustAxis(t, "cpvf.osc=none,two-step")},
			[]string{"axis_cpvf.osc", "two-step"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := mobisense.DefaultConfig(tc.scheme)
			base.N, base.Duration = 20, 60
			store := filepath.Join(dir, string(tc.scheme)+"-store")
			sweep := mobisense.Sweep{Base: base, Scenarios: []string{"free"}, Axes: tc.axes, Repeats: 2, Seed: 9}
			if _, err := sweep.Run(context.Background(), mobisense.BatchOptions{Store: &mobisense.Store{Dir: store}}); err != nil {
				t.Fatal(err)
			}
			csv := filepath.Join(dir, string(tc.scheme)+".csv")
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-csv", csv, store}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
			}
			data, err := os.ReadFile(csv)
			if err != nil {
				t.Fatal(err)
			}
			header, body, _ := strings.Cut(string(data), "\n")
			if !strings.Contains(header, tc.want[0]) {
				t.Errorf("header %q lacks %q", header, tc.want[0])
			}
			for _, w := range tc.want[1:] {
				if !strings.Contains(body, w) {
					t.Errorf("rows lack %q:\n%s", w, body)
				}
			}
		})
	}
}

func mustAxis(t *testing.T, spec string) mobisense.ParamAxis {
	t.Helper()
	ax, err := mobisense.ParseAxis(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ax
}
