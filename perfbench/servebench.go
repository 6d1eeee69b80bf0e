package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"fcma"
	"fcma/internal/chaos"
	"fcma/internal/fmri"
	"fcma/internal/serve"
)

const (
	// serveClients is the closed loop's client count: one per core of the
	// 2-vCPU host the benchmark was sized on, each with one connection.
	serveClients = 2
	// serveBases is how many datasets are uploaded at set-up; reuse jobs
	// draw from them. Nothing measured sets the number: it is more than
	// serveClients, so the two clients mostly work on different datasets,
	// and all of them, with every fresh upload of a run, fit the service's
	// default 256 MiB decoded-dataset cache: nothing is evicted, and every
	// job on a base after its first finds it decoded.
	serveBases = 4
	// freshEvery makes one job in freshEvery upload a fresh dataset first
	// (a renamed copy of a base: new bytes, same scores). The 1:3 split of
	// uploads to reuses is an assumption with no usage data behind it; it
	// only makes both paths a regular part of every run.
	freshEvery = 4
	// serveMinJobs keeps at least ten samples beyond p90.
	serveMinJobs = 100
	// pollInterval is how often a client asks whether its job is done.
	pollInterval = 5 * time.Millisecond
)

// serveBase is one uploaded dataset and its in-process reference ranking.
type serveBase struct {
	spec fmri.Spec
	ds   *fmri.Dataset
	hash string
	ref  []fcma.VoxelScore
}

// serveRig is a running fcma-serve Service behind a loopback HTTP server,
// with the base datasets uploaded.
type serveRig struct {
	svc    *serve.Service
	srv    *httptest.Server
	client *http.Client
	dir    string
	seed   int64
	bases  []*serveBase

	mu      sync.Mutex
	uploads []float64 // seconds per dataset upload
	submits []float64 // seconds per job submission
}

// startServe generates the base datasets, starts a Service on a fresh
// state directory under dir, and uploads the bases over HTTP.
func startServe(ctx context.Context, seed int64, dir string, fsys chaos.FS) (*serveRig, error) {
	sdir, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(serve.Options{
		Dir:       sdir,
		FS:        fsys,
		RetrySeed: 1,
		Log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		os.RemoveAll(sdir)
		return nil, err
	}
	r := &serveRig{
		svc:  svc,
		srv:  httptest.NewServer(svc.Handler()),
		dir:  sdir,
		seed: seed,
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
		},
	}
	for i := 0; i < serveBases; i++ {
		b := &serveBase{spec: smallSpec(seed, i)}
		if b.ds, err = fmri.Generate(b.spec); err == nil {
			b.hash, err = r.upload(ctx, b.ds)
		}
		if err != nil {
			r.close() // the set-up error is the one to report
			return nil, err
		}
		r.bases = append(r.bases, b)
	}
	return r, nil
}

// references computes each base's in-process fcma.SelectVoxels ranking,
// which every job on it must equal bit for bit.
func (r *serveRig) references(ctx context.Context) error {
	for _, b := range r.bases {
		data, err := fcma.Generate(fcma.Spec(b.spec))
		if err == nil {
			b.ref, err = fcma.SelectVoxelsContext(ctx, data, fcma.Config{})
		}
		if err != nil {
			return fmt.Errorf("reference for %s: %w", b.spec.Name, err)
		}
	}
	return nil
}

// job is the i-th job of a run: on a base dataset, and after a fresh
// upload for one job in freshEvery. The choice depends only on the seed
// and i, so a fixed number of jobs is a fixed amount of work.
func (r *serveRig) job(ctx context.Context, i int) opResult {
	base, fresh := r.pick(i)
	b := r.bases[base]
	hash := b.hash
	if fresh {
		renamed := *b.ds
		renamed.Name = fmt.Sprintf("%s-fresh-%d", b.spec.Name, i)
		var err error
		if hash, err = r.upload(ctx, &renamed); err != nil {
			return opResult{input: base, err: err}
		}
	}
	start := time.Now()
	id, err := r.submit(ctx, hash)
	var got []fcma.VoxelScore
	if err == nil {
		got, err = r.result(ctx, id)
	}
	return opResult{seconds: time.Since(start).Seconds(), ranking: got, input: base, signal: b.ds.SignalVoxels, err: err}
}

// verify checks every job's ranking against its base's reference.
func (r *serveRig) verify(ctx context.Context, st *loopStats) error {
	if err := r.references(ctx); err != nil {
		return err
	}
	st.verify(func(op opResult) error { return checkIdentical(op.ranking, r.bases[op.input].ref) })
	return nil
}

// pick chooses the i-th job's base dataset and whether it first uploads
// a fresh copy.
func (r *serveRig) pick(i int) (int, bool) {
	h := splitmix(uint64(r.seed)<<32 ^ uint64(i))
	return int(h % serveBases), (h>>16)%freshEvery == 0
}

// splitmix is the SplitMix64 finalizer, a cheap seeded hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// upload posts a dataset in the service's upload framing (8-byte data
// length, fmri.WriteData, fmri.WriteEpochs) and returns its content hash.
func (r *serveRig) upload(ctx context.Context, ds *fmri.Dataset) (string, error) {
	var data, eps bytes.Buffer
	if err := fmri.WriteData(&data, ds); err != nil {
		return "", err
	}
	if err := fmri.WriteEpochs(&eps, ds.Epochs); err != nil {
		return "", err
	}
	blob := binary.LittleEndian.AppendUint64(nil, uint64(data.Len()))
	blob = append(append(blob, data.Bytes()...), eps.Bytes()...)
	var out struct{ Hash string }
	start := time.Now()
	err := r.call(ctx, http.MethodPost, "/api/v1/datasets", blob, http.StatusCreated, &out)
	r.record(&r.uploads, time.Since(start))
	return out.Hash, err
}

// submit posts a job on an uploaded dataset and returns its id.
func (r *serveRig) submit(ctx context.Context, hash string) (string, error) {
	spec, err := json.Marshal(serve.JobSpec{Dataset: hash, Tenant: "bench"})
	if err != nil {
		return "", err
	}
	var out struct{ ID string }
	start := time.Now()
	err = r.call(ctx, http.MethodPost, "/api/v1/jobs", spec, http.StatusAccepted, &out)
	r.record(&r.submits, time.Since(start))
	return out.ID, err
}

// result polls a job until it is done and fetches its ranking.
func (r *serveRig) result(ctx context.Context, id string) ([]fcma.VoxelScore, error) {
	for {
		var st struct {
			State serve.State
			Error string
		}
		if err := r.call(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, http.StatusOK, &st); err != nil {
			return nil, err
		}
		if st.State == serve.StateDone {
			break
		}
		if st.State.Terminal() {
			return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
	var out struct {
		Scores []struct {
			Voxel    int
			Accuracy float64
		}
	}
	if err := r.call(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/result", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	scores := make([]fcma.VoxelScore, len(out.Scores))
	for i, s := range out.Scores {
		scores[i] = fcma.VoxelScore{Voxel: s.Voxel, Accuracy: s.Accuracy}
	}
	return scores, nil
}

// call makes one request and decodes the JSON reply; any status other
// than want is a failure.
func (r *serveRig) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, r.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return json.Unmarshal(reply, out)
}

func (r *serveRig) record(into *[]float64, d time.Duration) {
	r.mu.Lock()
	*into = append(*into, d.Seconds())
	r.mu.Unlock()
}

// close stops the HTTP server, drains the service (which removes its
// settled journal) and deletes the state directory.
func (r *serveRig) close() error {
	r.srv.Close()
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.svc.Drain(ctx)
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// serveBench is the serve-jobs workload.
type serveBench struct{ rig *serveRig }

func setupServe(ctx context.Context, seed int64, dir string) (bench, error) {
	rig, err := startServe(ctx, seed, dir, chaos.OS())
	if err != nil {
		return nil, err
	}
	return &serveBench{rig: rig}, nil
}

func (b *serveBench) measure(ctx context.Context, budget time.Duration) (loopStats, error) {
	st, err := closedLoop(ctx, serveClients, serveMinJobs, budget, b.rig.job)
	if err != nil {
		return st, err
	}
	fresh := 0
	for i := range st.ops {
		if _, f := b.rig.pick(i); f {
			fresh++
		}
	}
	fmt.Fprintf(os.Stderr, "serve-jobs: %.0f%% of jobs reused an uploaded dataset\n", 100*(1-float64(fresh)/float64(len(st.ops))))
	return st, b.rig.verify(ctx, &st)
}

func (b *serveBench) close() error { return b.rig.close() }
