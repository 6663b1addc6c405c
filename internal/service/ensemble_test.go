package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/internal/tally"
)

// ensembleConfig is a fast multi-replica configuration.
func ensembleConfig(replicas int) core.Config {
	cfg := core.Default(mesh.CSP)
	cfg.NX, cfg.NY = 96, 96
	cfg.Particles = 250
	cfg.Replicas = replicas
	return cfg
}

// TestEnsembleJobMergesReplicas runs an ensemble job through the engine and
// checks the merged statistics against the stats driver run directly on the
// same configuration — both must fold identical per-replica physics.
func TestEnsembleJobMergesReplicas(t *testing.T) {
	const reps = 4
	e := New(Options{Shards: 2})
	defer e.Close()

	cfg := ensembleConfig(reps)
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("ensemble job state %v, err %v", st.State, st.Err)
	}

	ens := j.Ensemble()
	if ens == nil {
		t.Fatal("ensemble job carries no merged statistics")
	}
	if ens.Replicas != reps || len(ens.Totals) != reps {
		t.Fatalf("merged %d replicas (%d totals), want %d", ens.Replicas, len(ens.Totals), reps)
	}
	views := j.Replicas()
	if len(views) != reps {
		t.Fatalf("%d replica views, want %d", len(views), reps)
	}
	for r, v := range views {
		if v.Replica != r || v.Replicas != reps {
			t.Errorf("replica view %d = %+v", r, v)
		}
		if v.TallyTotal != ens.Totals[r] {
			t.Errorf("replica %d view total %v != merged total %v", r, v.TallyTotal, ens.Totals[r])
		}
	}

	// The stats driver over the same config, on three workers of its own,
	// must produce the same statistics to the bit: replica physics is
	// engine-independent and both fold in replica order.
	direct, err := stats.RunEnsemble(context.Background(), cfg, stats.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(direct.Totals, ens.Totals) || direct.MeanTotal != ens.MeanTotal {
		t.Errorf("totals: direct %v (mean %v), service %v (mean %v)", direct.Totals, direct.MeanTotal, ens.Totals, ens.MeanTotal)
	}
	if !slices.Equal(direct.Mean, ens.Mean) || !slices.Equal(direct.Variance, ens.Variance) || !slices.Equal(direct.RelErr, ens.RelErr) {
		t.Error("per-cell mean, variance or relative error differs between the stats driver and the service")
	}
	if direct.AvgRelErr != ens.AvgRelErr || direct.MaxRelErr != ens.MaxRelErr {
		t.Errorf("relative error: direct avg %v max %v, service avg %v max %v", direct.AvgRelErr, direct.MaxRelErr, ens.AvgRelErr, ens.MaxRelErr)
	}

	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.TallyTotal != ens.MeanTotal {
		t.Errorf("parent result total %v != ensemble mean %v", res.TallyTotal, ens.MeanTotal)
	}
}

// TestEnsembleReplicasStayFiled: folding an ensemble reads each replica's
// cells from its runs into a slice of its own, so what the store keeps of a
// replica stays one set of runs, shared by its result and its view.
func TestEnsembleReplicasStayFiled(t *testing.T) {
	const reps = 4
	e := New(Options{Shards: 2})
	defer e.Close()
	cfg := ensembleConfig(reps)
	cfg.KeepCells = true
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("ensemble job state %v, err %v", st.State, st.Err)
	}
	for _, v := range j.Replicas() {
		child, err := e.Job(v.JobID)
		if err != nil {
			t.Fatal(err)
		}
		f, _, ok := e.store.get(child.key, child.cfg)
		switch {
		case !ok:
			t.Fatalf("replica %d is not in the store", v.Replica)
		case len(f.res.Cells.Vals) == 0:
			t.Fatalf("replica %d was filed without cells", v.Replica)
		case &f.res.Cells.Vals[0] != &f.view.Cells.Vals[0]:
			t.Errorf("replica %d: stored result and view hold two copies of %d run values",
				v.Replica, len(f.res.Cells.Vals))
		}
	}
}

// TestEnsembleJobCacheHit resubmits an identical ensemble: the parent must
// be served from the cache, statistics included, without re-running any
// replica.
func TestEnsembleJobCacheHit(t *testing.T) {
	e := New(Options{Shards: 2})
	defer e.Close()

	cfg := ensembleConfig(3)
	j1, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	runsBefore := e.Stats().Runs

	j2, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	st := j2.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("resubmitted ensemble state %v cached %v", st.State, st.Cached)
	}
	if j2.Ensemble() == nil {
		t.Error("cached ensemble job lost its statistics")
	}
	if runs := e.Stats().Runs; runs != runsBefore {
		t.Errorf("cache hit ran %d extra solves", runs-runsBefore)
	}
}

// TestEnsembleRejectsNullTally: the engine must refuse an ensemble whose
// tally keeps nothing — mirroring stats.RunEnsemble — instead of completing
// with all-zero statistics.
func TestEnsembleRejectsNullTally(t *testing.T) {
	e := New(Options{Shards: 1})
	defer e.Close()
	cfg := ensembleConfig(3)
	cfg.Tally = tally.ModeNull
	if _, err := e.Submit(cfg); err == nil {
		t.Fatal("null-tally ensemble accepted")
	}
	// A plain null-tally run remains legal.
	cfg.Replicas = 1
	if _, err := e.Submit(cfg); err != nil {
		t.Fatalf("plain null-tally run rejected: %v", err)
	}
}

// TestEnsembleJobCancel cancels an in-flight ensemble and checks the parent
// lands canceled without wedging the engine.
func TestEnsembleJobCancel(t *testing.T) {
	e := New(Options{Shards: 1})
	defer e.Close()

	cfg := ensembleConfig(6)
	cfg.NX, cfg.NY = 256, 256
	cfg.Particles = 4000
	cfg.Steps = 4
	j, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("canceled ensemble never became terminal")
	}
	if st := j.Status(); st.State != StateCanceled && st.State != StateDone {
		t.Fatalf("state %v after cancel", st.State)
	}
}

// TestEnsembleHTTP exercises the wire surface: ensemble submission via
// replicas, per-replica SSE events, the /replicas endpoint and the merged
// statistics in the result payload.
func TestEnsembleHTTP(t *testing.T) {
	e := New(Options{Shards: 2})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	const reps = 3
	body := fmt.Sprintf(`{"problem":"csp","nx":96,"particles":250,"replicas":%d,"keep_cells":true,"weight_window":{}}`, reps)
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jv.Replicas != reps {
		t.Fatalf("job view replicas %d, want %d", jv.Replicas, reps)
	}

	// Stream until done, counting replica events.
	sresp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + jv.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	replicaEvents := 0
	sc := bufio.NewScanner(sresp.Body)
	done := false
	for sc.Scan() && !done {
		line := sc.Text()
		switch {
		case line == "event: replica":
			replicaEvents++
		case line == "event: done":
			done = true
		}
	}
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if replicaEvents != reps {
		t.Errorf("saw %d replica events, want %d", replicaEvents, reps)
	}

	rresp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + jv.ID + "/replicas")
	if err != nil {
		t.Fatal(err)
	}
	var views []ReplicaView
	if err := json.NewDecoder(rresp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if len(views) != reps {
		t.Fatalf("/replicas returned %d entries, want %d", len(views), reps)
	}

	vresp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + jv.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rv ResultView
	if err := json.NewDecoder(vresp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if rv.Ensemble == nil {
		t.Fatal("result carries no ensemble block")
	}
	if rv.Ensemble.Replicas != reps {
		t.Errorf("result ensemble replicas %d, want %d", rv.Ensemble.Replicas, reps)
	}
	if len(rv.Ensemble.ReplicaTotals) != reps {
		t.Errorf("result carries %d replica totals, want %d", len(rv.Ensemble.ReplicaTotals), reps)
	}
	if len(rv.Ensemble.RelErr) == 0 {
		t.Error("keep_cells result carries no per-cell rel-err map")
	}
	if len(rv.Cells.Vals) == 0 {
		t.Error("keep_cells result carries no mean cell map")
	}
	if rv.Ensemble.MeanTotal <= 0 {
		t.Errorf("ensemble mean total %v", rv.Ensemble.MeanTotal)
	}
}
