package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/navigation"
)

func TestBuildAssemblesServer(t *testing.T) {
	srv, cfg, contexts, err := build([]string{"-addr", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	// Shutdown runs the RegisterOnShutdown hook, stopping the janitor.
	defer srv.Shutdown(context.Background())
	defer cfg.closeStore()
	if srv.Addr != ":0" || srv.Handler == nil {
		t.Errorf("server = %+v", srv)
	}
	if contexts != 4 {
		t.Errorf("contexts = %d, want 4 (paper museum)", contexts)
	}
	if cfg.storeName != "mem" {
		t.Errorf("default store = %q, want mem", cfg.storeName)
	}
	// Drive the assembled handler end to end.
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/ByAuthor/picasso/guitar.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("page response missing ETag")
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "<h1>Guitar</h1>") {
		t.Error("page content missing")
	}
}

func TestBuildServingKnobs(t *testing.T) {
	srv, cfg, _, err := build([]string{
		"-addr", ":0",
		"-session-ttl", "5m", "-session-shards", "4", "-evict-interval", "0",
		"-shutdown-timeout", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cfg.closeStore()
	if cfg.shutdownTimeout != 3*time.Second {
		t.Errorf("shutdownTimeout = %v", cfg.shutdownTimeout)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/ByAuthor/picasso/guitar.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestBuildAnalyticsKnobs: the adaptive-navigation flags wire a
// recorder into the handler — /stats reports analytics on, records the
// traffic the request itself generated, and -analytics=false turns the
// endpoint into its disabled form.
func TestBuildAnalyticsKnobs(t *testing.T) {
	srv, cfg, _, err := build([]string{
		"-addr", ":0", "-sample-rate", "1",
		"-adapt-interval", "50ms", "-adapt-min-hops", "1",
		"-trail-limit", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	defer cfg.closeStore()
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	if resp, err := ts.Client().Get(ts.URL + "/ByAuthor/picasso/guitar.html"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	body := string(buf[:n])
	if !strings.Contains(body, `"analytics":true`) || !strings.Contains(body, `"recorded":1`) {
		t.Errorf("/stats = %s", body)
	}

	off, cfgOff, _, err := build([]string{"-addr", ":0", "-analytics=false"})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Shutdown(context.Background())
	defer cfgOff.closeStore()
	tsOff := httptest.NewServer(off.Handler)
	defer tsOff.Close()
	resp, err = tsOff.Client().Get(tsOff.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), `"analytics":false`) {
		t.Errorf("disabled /stats = %s", buf[:n])
	}
}

// TestBuildFileStore: -store file persists sessions under -store-dir and
// exports the site snapshot at startup.
func TestBuildFileStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	srv, cfg, _, err := build([]string{"-addr", ":0", "-store", "file", "-store-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.storeName != "file" {
		t.Errorf("store = %q, want file", cfg.storeName)
	}
	ts := httptest.NewServer(srv.Handler)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), `"store":"file"`) {
		t.Errorf("healthz = %s", buf[:n])
	}
	ts.Close()
	if err := cfg.closeStore(); err != nil {
		t.Fatal(err)
	}
	// The final flush left a snapshot holding the exported site.
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "site/links.xml") {
		t.Error("store snapshot missing the exported linkbase")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := [][]string{
		{"-dataset", "bogus"},
		{"-nope"},
		{"-store", "bogus"},
		{"-store", "file"},                      // missing -store-dir
		{"-store", "mem", "-store-dir", "/tmp"}, // dir without file backend
	}
	for _, args := range cases {
		if _, _, _, err := build(args); err == nil {
			t.Errorf("build(%v) accepted", args)
		}
	}
}

// TestRunShutsDownOnSignal covers the graceful-shutdown path end to end:
// run serves until SIGTERM, then drains and exits nil.
func TestRunShutsDownOnSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("signals the whole process")
	}
	// Guard first: registering any SIGTERM handler disables the default
	// kill-the-process disposition, so a signal that lands before run()
	// installs its own NotifyContext cannot take the test binary down.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	dir := filepath.Join(t.TempDir(), "store")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-store", "file", "-store-dir", dir})
	}()
	// run() has no readiness signal, so deliver SIGTERM periodically:
	// signals sent before NotifyContext is installed land only in the
	// guard channel; the first one after it triggers the shutdown path.
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run after SIGTERM = %v, want nil", err)
			}
			// The store's final flush ran: the snapshot exists.
			if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
				t.Errorf("no snapshot after graceful shutdown: %v", err)
			}
			return
		case <-tick.C:
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("run did not shut down on SIGTERM")
		}
	}
}

// TestBuildPprofFlag: the profiler only ever binds loopback, and the
// assembled pprof server answers the index route.
func TestBuildPprofFlag(t *testing.T) {
	srv, cfg, _, err := build([]string{"-addr", ":0", "-pprof", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	defer cfg.closeStore()
	defer cfg.closeHandler()
	if cfg.pprofAddr != "127.0.0.1:0" {
		t.Errorf("pprofAddr = %q", cfg.pprofAddr)
	}

	for _, bad := range []string{"0.0.0.0:6060", "example.com:6060", "6060", "192.168.1.4:6060"} {
		if _, _, _, err := build([]string{"-addr", ":0", "-pprof", bad}); err == nil {
			t.Errorf("build accepted non-loopback -pprof %q", bad)
		}
	}

	ts := httptest.NewServer(pprofServer("127.0.0.1:0").Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index = %d", resp.StatusCode)
	}
}

// TestBuildPersistenceKnobs: the write-behind flags parse and assemble.
func TestBuildPersistenceKnobs(t *testing.T) {
	srv, cfg, _, err := build([]string{
		"-addr", ":0", "-sync-persist", "-flush-interval", "50ms", "-flush-batch", "8",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	defer cfg.closeStore()
	defer cfg.closeHandler()
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), `"persist_queue":0`) {
		t.Errorf("healthz = %s, want persist_queue", buf[:n])
	}
}

// TestHopTableSizedFromDerivedEdges: navserve sizes its hop tables from
// the App's count of hop keys, which reads the edges the build already
// derived; the count equals what deriving every context's edges afresh
// gives, on the 50/20/8 synthetic museum (9,942 slots per shard on two
// CPUs), the paper's museum and the paper's museum with an adaptive
// tour, at any shard count.
func TestHopTableSizedFromDerivedEdges(t *testing.T) {
	appFor := func(args ...string) *core.App {
		t.Helper()
		fs := flag.NewFlagSet("navserve", flag.ContinueOnError)
		var flags cli.DatasetFlags
		flags.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		app, err := flags.BuildApp()
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	synthetic := appFor("-dataset", "synthetic", "-painters", "50", "-paintings", "20", "-movements", "8")
	adapted := appFor()
	if _, err := adapted.SetAccessStructures(map[string]navigation.AccessStructure{
		"ByAuthor": navigation.AdaptiveTour{Circular: true, Plans: map[string]navigation.TourPlan{
			"ByAuthor:picasso": {Order: []string{"guernica", "guitar"}, Landmarks: []string{"guitar"}, Dead: []string{"avignon"}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	for name, app := range map[string]*core.App{"synthetic 50/20/8": synthetic, "paper": appFor(), "adaptive": adapted} {
		// The count deriving every context's edges again gives.
		keys := 0
		for _, rc := range app.Resolved().Contexts {
			keys += len(rc.Edges()) + len(rc.Members)
			if rc.Def.Access.HasHub() {
				keys++
			}
		}
		t.Logf("%s: %d keys", name, keys)
		if got := app.HopKeys(); got != keys {
			t.Errorf("%s: HopKeys = %d, deriving the edges again counts %d", name, got, keys)
		}
		for _, shards := range []int{1, 2, 8} {
			want := max(analytics.DefaultSlotsPerShard, 2*keys/shards)
			if got := analytics.SlotsPerShardFor(app.HopKeys(), shards); got != want {
				t.Errorf("%s, %d shards: %d slots per shard, want %d", name, shards, got, want)
			}
		}
	}
	if got := analytics.SlotsPerShardFor(synthetic.HopKeys(), 2); got != 9942 {
		t.Errorf("50/20/8 museum on two CPUs: %d slots per shard, want 9,942", got)
	}
}
