package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
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
			if code := run(context.Background(), args, &stdout, &stderr); code != tc.code {
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

// TestDebugListener: with -debug-addr, run serves pprof and expvar (with
// the metrics registry) on a listener of its own beside the API, which
// does not serve them, and shuts both down when its context ends.
func TestDebugListener(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-data", t.TempDir(),
			"-log-format", "json", "-workers", "1"}, &stdout, stderr)
	}()
	api := "http://" + stderr.await(t, regexp.MustCompile(`serving deployment API on (\S+)`))
	dbg := "http://" + stderr.await(t, regexp.MustCompile(`"msg":"debug listener up","addr":"([^"]+)"`))
	for _, tc := range []struct{ url, want string }{
		{dbg + "/debug/pprof/goroutine?debug=1", "goroutine"},
		{dbg + "/debug/vars", `"mobisense_metrics"`},
		{api + "/v1/schemes", `"floor"`},
	} {
		if body, status := get(t, tc.url); status != http.StatusOK || !strings.Contains(body, tc.want) {
			t.Errorf("GET %s: status %d, body lacks %q:\n%.300s", tc.url, status, tc.want, body)
		}
	}
	if _, status := get(t, api+"/debug/vars"); status != http.StatusNotFound {
		t.Errorf("the API listener serves /debug/vars: status %d", status)
	}
	cancel()
	select {
	case c := <-code:
		if c != 0 || !strings.Contains(stderr.String(), "shut down") {
			t.Errorf("exit code %d after the context ended; stderr:\n%s", c, stderr.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not return after its context ended")
	}
}

func get(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// syncBuffer is a bytes.Buffer that the command's goroutines may write
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// await waits for re to match the output and returns its first group.
func (b *syncBuffer) await(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(b.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("output never matched %s:\n%s", re, b.String())
	return ""
}
