package main

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
)

// stack is navserve's serving stack assembled in this process, the way
// navserve's build assembles it from the workload's flags: the app from
// cli.DatasetFlags, the file store under storage.Instrument, the site
// exported into the store, and server.New with navserve's default
// options. The resume population and the traced run use it.
type stack struct {
	app   *core.App
	store storage.Store
	srv   *server.Server
}

// buildApp builds the workload's app from the same flags navserve gets.
func buildApp() (*core.App, error) {
	fs := flag.NewFlagSet("site", flag.ContinueOnError)
	var f cli.DatasetFlags
	f.Register(fs)
	if err := fs.Parse(siteFlags); err != nil {
		return nil, err
	}
	return f.BuildApp()
}

// assemble opens the file store in dir, wraps it with wrap (nil for
// none) inside navserve's instrumentation, and builds the server. It
// reports how long storage.OpenFile took in *open, when open is set.
func assemble(dir string, wrap func(storage.Store) storage.Store, open *time.Duration) (*stack, error) {
	app, err := buildApp()
	if err != nil {
		return nil, err
	}
	from := time.Now()
	var st storage.Store
	if st, err = storage.OpenFile(dir); err != nil {
		return nil, err
	}
	if open != nil {
		*open = time.Since(from)
	}
	if wrap != nil {
		st = wrap(st)
	}
	st = storage.Instrument(st)
	if err := app.ExportSnapshot(st); err != nil {
		st.Close()
		return nil, err
	}
	srv := server.New(app,
		server.WithSessionTTL(server.DefaultSessionTTL),
		server.WithSessionShards(server.DefaultSessionShards),
		server.WithPersistence(st),
		server.WithFlushInterval(server.DefaultFlushInterval),
		server.WithFlushBatch(server.DefaultFlushBatch),
		server.WithTrailLimit(server.DefaultTrailLimit),
		server.WithAPIToken(apiToken),
		server.WithAnalytics(analytics.NewRecorder(analytics.RecorderConfig{SampleRate: 1})),
		server.WithTracing(obs.NewTracer(obs.TraceConfig{
			SampleEvery: 128, SlowThreshold: 250 * time.Millisecond, RingSize: obs.DefaultTraceRing,
		})),
	)
	return &stack{app: app, store: st, srv: srv}, nil
}

// shutdown drains the write-behind queue and closes the store, as
// navserve does on SIGTERM.
func (s *stack) shutdown() error {
	if err := s.srv.Close(); err != nil {
		return err
	}
	return s.store.Close()
}

// popVisitors is the resume population: that many sessions, each
// walking as a browse visitor does (stepsMin to stepsMax steps), written
// through the server's own session path.
const popVisitors = 20000

// populate records popVisitors visitor histories into the file store
// in dir through an in-process server, then shuts it down gracefully.
// It returns the recorded visitors, with the navigation calls their
// walks made.
func populate(dir string, seed int64, workers int) ([]*visitor, error) {
	st, err := assemble(dir, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := handlerTransport{h: st.srv}
	s, err := fetchSite(tr, apiToken)
	if err != nil {
		st.shutdown()
		return nil, err
	}
	e := &env{site: s, live: newLiveSite(s), token: apiToken, record: true}
	visitors := make([]*visitor, popVisitors)
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < popVisitors; i += workers {
				v := newVisitor(i, seed)
				for n := stepsMin + v.rng.Intn(stepsMax-stepsMin+1); n > 0; n-- {
					v.step(tr, e, &tallies[w])
				}
				visitors[i] = v
			}
		}(w)
	}
	wg.Wait()
	var t tally
	for i := range tallies {
		t.merge(&tallies[i])
	}
	if err := st.shutdown(); err != nil {
		return nil, fmt.Errorf("closing the populated store: %w", err)
	}
	if t.failed > 0 || t.nviolations > 0 {
		return nil, fmt.Errorf("population: %d failed requests, violations %v", t.failed, t.violations)
	}
	return visitors, nil
}

// returner is a fresh copy of a recorded visitor, ready to come back
// with its cookie; its steps draw from a stream of their own, not the
// one the population walked with.
func (v *visitor) returner(seed int64) *visitor {
	return &visitor{
		id:        v.id,
		rng:       rand.New(rand.NewSource(seed*7_919 + int64(v.id))),
		cookie:    v.cookie,
		hist:      history{Entries: append([]entry(nil), v.hist.Entries...), Cursor: v.hist.Cursor},
		etags:     map[string]string{},
		returning: true,
		ops:       append([]navOp(nil), v.ops...),
	}
}
