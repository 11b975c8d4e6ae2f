package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
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
