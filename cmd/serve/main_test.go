package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlags: run rejects bad command lines with exit code 2 and a
// message on stderr, and prints usage for -h with exit code 0, all before
// the service opens its data directory or starts a listener.
func TestRunFlags(t *testing.T) {
	dir := t.TempDir()
	spec := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	unnamed := spec("unnamed.json", `{"bounds": {"max_x": 300, "max_y": 300}}`)
	dup := spec("dup.json", `{"name": "serve-cli-test-dup", "bounds": {"max_x": 300, "max_y": 300}}`)
	data := filepath.Join(dir, "data")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"help", []string{"-h"}, 0, "-log-format"},
		{"unknown log format", []string{"-log-format", "xml"}, 2, `bad -log-format "xml" (want text or json)`},
		{"spec without name", []string{"-field", unnamed}, 2, `has no "name"`},
		{"duplicate scenario", []string{"-field", dup, "-field", dup}, 2, "serve-cli-test-dup"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-data", data, "-addr", "127.0.0.1:0"}, tc.args...)
			if code := run(args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) || stdout.Len() != 0 {
				t.Errorf("stdout %q, stderr %q; want stderr to contain %q", stdout.String(), stderr.String(), tc.stderr)
			}
		})
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Errorf("a rejected command line created the data directory (stat: %v)", err)
	}
}
