package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDaemonLifecycle boots the daemon on a free port, exercises a miss/hit
// pair over real HTTP, then delivers SIGTERM and checks the graceful drain
// exits 0 — the in-process version of the CI smoke script.
func TestDaemonLifecycle(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain-timeout", "10s"},
			&stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-exit:
		t.Fatalf("daemon exited early: %d\n%s%s", code, stdout.String(), stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001}}`
	var first []byte
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d %v %s", i, resp.StatusCode, err, b)
		}
		if got := resp.Header.Get("X-Mdwd-Cache"); got != want {
			t.Fatalf("run %d: cache %q, want %q", i, got, want)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatal("cache hit not byte-identical")
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "drained cleanly") {
		t.Fatalf("drain not reported:\n%s", stdout.String())
	}
}

// TestFlagErrors: bad flags fail with exit code 2 before binding a socket.
func TestFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr, nil); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "bogus") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestFlagModeErrors: a flag only the other mode reads fails with exit code
// 2 naming it, in both directions, before binding a socket.
func TestFlagModeErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-coordinator", "-workers", "2"},
		{"-coordinator", "-backlog", "8"},
		{"-coordinator", "-max-cycles", "1000"},
		{"-coordinator", "-run-timeout", "1ms"},
		{"-coordinator", "-checkpoint-every", "100"},
		{"-coordinator", "-job-deadline", "1s"},
		{"-coordinator", "-deadline-cycles-per-sec", "1e6"},
		{"-peers", "http://127.0.0.1:1"},
		{"-hedge-after", "1s"},
		{"-worker-key", "k"},
	} {
		var stdout, stderr bytes.Buffer
		flagName := args[len(args)-2]
		if code := run(append(args, "-addr", "256.0.0.1:99999"), &stdout, &stderr, nil); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, stderr.String())
		} else if !strings.Contains(stderr.String(), flagName) {
			t.Errorf("%v: stderr does not name %s: %s", args, flagName, stderr.String())
		}
	}
}

// TestBindError: an unbindable address is a startup failure, not a hang.
func TestBindError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:99999"}, &stdout, &stderr, nil); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
}

// TestCacheDirFlag: results persist across daemon restarts via -cache-dir.
func TestCacheDirFlag(t *testing.T) {
	dir := t.TempDir()
	body := `{"config":{"stages":2,"warmup_cycles":100,"measure_cycles":400,"drain_cycles":50000,"op_rate":0.001,"seed":5}}`

	boot := func() (string, chan int, *bytes.Buffer) {
		var out bytes.Buffer
		ready := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- run([]string{"-addr", "127.0.0.1:0", "-cache-dir", dir}, &out, &out, ready)
		}()
		select {
		case addr := <-ready:
			return "http://" + addr, exit, &out
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon never ready:\n%s", out.String())
			return "", nil, nil
		}
	}
	stop := func(exit chan int, out *bytes.Buffer) {
		syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, out.String())
			}
		case <-time.After(15 * time.Second):
			t.Fatal("no exit after SIGTERM")
		}
	}

	base, exit, out := boot()
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d", resp.StatusCode)
	}
	stop(exit, out)

	base, exit, out = boot()
	resp, err = http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Mdwd-Cache"); got != "hit" {
		t.Fatalf("after restart: cache %q, want hit (%s)", got, fmt.Sprint(resp.StatusCode))
	}
	stop(exit, out)
}

// syncBuffer is a bytes.Buffer safe to read while the daemon's goroutines
// (the SIGHUP reload loop) are still writing log lines to it.
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

// TestTenantsSIGHUP: SIGHUP re-reads the -tenants file in place — new keys
// authenticate, removed keys stop, and an invalid rewrite is rejected with a
// logged error while the previous table stays live.
func TestTenantsSIGHUP(t *testing.T) {
	dir := t.TempDir()
	tf := dir + "/tenants"
	if err := os.WriteFile(tf, []byte("key-old alpha 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out syncBuffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-tenants", tf, "-drain-timeout", "10s"},
			&out, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-exit:
		t.Fatalf("daemon exited early: %d\n%s", code, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	get := func(key string) int {
		req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("key-old"); got != http.StatusOK {
		t.Fatalf("key-old before reload: %d", got)
	}

	// Rewrite and reload: key-new replaces key-old.
	if err := os.WriteFile(tf, []byte("key-new alpha 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for get("key-new") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatalf("key-new never authenticated after SIGHUP:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := get("key-old"); got != http.StatusUnauthorized {
		t.Fatalf("removed key-old after reload: %d", got)
	}

	// An invalid rewrite is rejected; the live table is untouched.
	if err := os.WriteFile(tf, []byte("not a valid line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "tenants reload rejected") {
		if time.Now().After(deadline) {
			t.Fatalf("invalid reload never logged:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := get("key-new"); got != http.StatusOK {
		t.Fatalf("key-new after rejected reload: %d", got)
	}

	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no exit after SIGTERM")
	}
}
