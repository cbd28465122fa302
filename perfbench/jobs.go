package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"oltpsim/internal/cli"
	"oltpsim/internal/core"
	"oltpsim/internal/experiments"
	"oltpsim/internal/oltp"
	"oltpsim/internal/scenario"
	"oltpsim/internal/server"
	"oltpsim/internal/sim"
	"oltpsim/internal/stats"
)

// The jobs-ckpt workload: a closed loop of jobClients clients against an
// in-process server at the cmd/oltpserver defaults (1 worker, 500-
// transaction checkpoint interval, data directory on disk). Each client
// submits a job over loopback HTTP and waits on its server-sent event
// stream for the terminal event before submitting the next. The server,
// snapshot encoding with fsync, and per-job set-up (a fresh Zipf zeta table
// per job) dominate here; the figure workloads never touch them.

const (
	jobClients = 2
	// jobSetups is how many times a run builds the machines of all specs.
	jobSetups = 5
	// jobMinRounds keeps at least 11 latency samples per run, so the tail
	// percentile exists.
	jobMinRounds = 2
	// jobNominal is one round's wall seconds on a 2-core host.
	jobNominal = 3.5
)

// jobSpecs are the job shapes the clients rotate through, on the quick
// database and protocol: the fully integrated 8p machine checkpointing
// every 100 transactions, the 1p Base machine at the server's default
// interval, and the 8p machine under the burst scenario (read and scan
// transactions beside the updates, scenario checkpoints).
func jobSpecs(seed uint64) ([]server.JobSpec, error) {
	f, err := os.Open(filepath.Join("examples", "scenarios", "burst.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	burst, err := scenario.DecodeProfile(f)
	if err != nil {
		return nil, fmt.Errorf("burst scenario: %w", err)
	}
	q := experiments.QuickOptions()
	every := uint64(100)
	full := cli.MachineSpec{Procs: 8, Level: "full", L2: "2M", Assoc: 8}
	base := cli.MachineSpec{Procs: 1, Level: "base", L2: "8M", Assoc: 1}
	mk := func(name string, m cli.MachineSpec, ckpt *uint64, sc *scenario.Profile) server.JobSpec {
		return server.JobSpec{Name: name, Machines: []cli.MachineSpec{m}, WarmupTxns: q.WarmupTxns,
			MeasureTxns: q.MeasureTxns, Seed: seed, Quick: true, CheckpointEvery: ckpt, Scenario: sc}
	}
	return []server.JobSpec{
		mk("full-8p-ckpt100", full, &every, nil),
		mk("base-1p", base, nil, nil),
		mk("full-8p-burst", full, &every, &burst),
	}, nil
}

// jobOptions is the protocol a job spec asks for, each job with its own
// zeta table as the server gives it.
func jobOptions(spec server.JobSpec) (experiments.Options, []core.Config, error) {
	cfgs, err := spec.Configs()
	if err != nil {
		return experiments.Options{}, nil, err
	}
	o := experiments.Options{WarmupTxns: spec.WarmupTxns, MeasureTxns: spec.MeasureTxns, Seed: spec.Seed,
		Quick: spec.Quick, Zeta: sim.NewZetaCache()}
	if spec.Scenario != nil {
		if o.Scenario, err = spec.Scenario.Compile(); err != nil {
			return experiments.Options{}, nil, err
		}
	}
	return o, cfgs, nil
}

// directResults runs a spec in-process, without the server: the reference
// every job's results must equal byte for byte.
func directResults(spec server.JobSpec) ([]byte, error) {
	o, cfgs, err := jobOptions(spec)
	if err != nil {
		return nil, err
	}
	res := make([]stats.RunResult, len(cfgs))
	for i, cfg := range cfgs {
		if o.Scenario != nil {
			res[i] = o.RunScenario(cfg).Total
		} else {
			res[i] = o.Run(cfg)
		}
	}
	return json.Marshal(res)
}

// jobSetup builds the machines of every spec once, each with a fresh zeta
// table.
func jobSetup(specs []server.JobSpec) error {
	for _, spec := range specs {
		o, cfgs, err := jobOptions(spec)
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			if _, err := newMachine(o, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// newMachine builds the harness and system of one configuration.
func newMachine(o experiments.Options, cfg core.Config) (*core.System, error) {
	h, err := oltp.NewHarness(o.Params(cfg))
	if err != nil {
		return nil, err
	}
	return core.NewSystem(cfg, h)
}

// service is the in-process job server behind a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	dir    string
	client *http.Client
}

func startService() (*service, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "jobs", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: dir, Now: time.Now})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Close cannot fail on a server that never started.
		_ = srv.Close()
		return nil, err
	}
	srv.Start()
	s := &service{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), dir: dir, client: &http.Client{}}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server, shuts the listener, waits for it and removes the
// data directory.
func (s *service) stop() error {
	err := s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// jobRun is what a client saw of one job.
type jobRun struct {
	spec       int
	failure    string // empty when the job is done and its results match
	latency    float64
	submit     time.Time
	accepted   time.Time
	started    time.Time
	done       time.Time
	ckpts      []time.Time
	checkpoint int
}

// job submits one spec and follows it to its terminal event. accepted, if
// not nil, is called once the server has queued the job.
func (s *service) job(spec int, body, want []byte, accepted func()) (jobRun, error) {
	jr := jobRun{spec: spec, submit: time.Now()}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jr, err
	}
	var st server.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jr.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		jr.failure = fmt.Sprintf("submission refused with %s", resp.Status)
		return jr, nil
	}
	if err != nil {
		return jr, fmt.Errorf("decoding submission response: %w", err)
	}
	if accepted != nil {
		accepted()
	}
	terminal, err := s.follow(st.ID, &jr)
	if err != nil {
		return jr, err
	}
	jr.latency = jr.done.Sub(jr.submit).Seconds()
	if terminal != string(server.StateDone) {
		jr.failure = fmt.Sprintf("job %s ended %s", st.ID, terminal)
		return jr, nil
	}
	resp, err = s.client.Get(s.base + "/jobs/" + st.ID)
	if err != nil {
		return jr, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return jr, fmt.Errorf("decoding job status: %w", err)
	}
	jr.checkpoint = st.Checkpoints
	if got, err := json.Marshal(st.Results); err != nil || !bytes.Equal(got, want) {
		jr.failure = fmt.Sprintf("job %s results differ from a direct run of its spec", st.ID)
	}
	return jr, nil
}

// follow reads a job's SSE stream until its terminal event, noting when the
// client sees started, checkpoint and the terminal event.
func (s *service) follow(id string, jr *jobRun) (string, error) {
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		now := time.Now()
		switch ev {
		case "started":
			jr.started = now
		case "checkpoint":
			jr.ckpts = append(jr.ckpts, now)
		case string(server.StateDone), string(server.StateFailed), string(server.StateCancelled):
			jr.done = now
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// jobRound has every client run one job of each spec, client c starting at
// spec c, and returns the jobs in client order. The other clients start
// once client 0's first job is queued, so the server sees the jobs in the
// same order every round: each job queues behind the other client's
// running one.
func (s *service) jobRound(bodies, wants [][]byte) ([]jobRun, error) {
	runs := make([][]jobRun, jobClients)
	errs := make([]error, jobClients)
	first := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(first) }) }
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			accepted := release
			if c == 0 {
				defer release()
			} else {
				<-first
				accepted = nil
			}
			for k := range bodies {
				i := (c + k) % len(bodies)
				jr, err := s.job(i, bodies[i], wants[i], accepted)
				if err != nil {
					errs[c] = err
					return
				}
				runs[c] = append(runs[c], jr)
			}
		}()
	}
	wg.Wait()
	var out []jobRun
	for c := range runs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		out = append(out, runs[c]...)
	}
	return out, nil
}

// jobFixture is what every jobs-ckpt run prepares outside its timed
// section: the specs, their request bodies and their reference results.
type jobFixture struct {
	specs         []server.JobSpec
	bodies, wants [][]byte
}

func newJobFixture(seed uint64) (*jobFixture, error) {
	specs, err := jobSpecs(seed)
	if err != nil {
		return nil, err
	}
	fx := &jobFixture{specs: specs}
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		want, err := directResults(spec)
		if err != nil {
			return nil, err
		}
		fx.bodies = append(fx.bodies, body)
		fx.wants = append(fx.wants, want)
	}
	return fx, nil
}

// tallyJobs records one operation per job.
func tallyJobs(t *tally, runs []jobRun) {
	for _, jr := range runs {
		t.check(jr.failure == "", "%s", jr.failure)
	}
}

func timedJobs(seed uint64, seconds int) (*outcome, error) {
	o := newOutcome()
	fx, err := newJobFixture(seed)
	if err != nil {
		return nil, err
	}
	setups, err := repeat(jobSetups, func() error { return jobSetup(fx.specs) })
	if err != nil {
		return nil, err
	}
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	var all []jobRun
	rs, err := rounds(seconds, jobNominal, jobMinRounds, func() error {
		runs, err := svc.jobRound(fx.bodies, fx.wants)
		all = append(all, runs...)
		return err
	})
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	tallyJobs(&o.tally, all)
	var ops []float64
	for _, jr := range all {
		if jr.failure == "" {
			ops = append(ops, jr.latency)
		}
	}
	if err := endToEnd(o, rs, setups, ops); err != nil {
		return nil, err
	}
	o.note = fmt.Sprintf("%d clients, %d jobs per round", jobClients, jobClients*len(fx.specs))
	return o, nil
}

// tracedJobs runs one traced round of jobs, times each spec in-process and
// its checkpoint saves, then records and replays the three job shapes.
func tracedJobs(seed uint64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	fx, err := newJobFixture(seed)
	if err != nil {
		return nil, err
	}
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	var runs []jobRun
	root := tr.begin("server.round", "", 0)
	rs, err := timeRound(func() error {
		var err error
		runs, err = svc.jobRound(fx.bodies, fx.wants)
		return err
	})
	tr.end(root)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	tallyJobs(&o.tally, runs)
	o.setLayer("experiments.idle_share", 1-rs.cpu/(float64(workers())*rs.wall))
	o.setLayer("experiments.paper_match", 0)

	// In-process cost of each spec: RunCheckpointed at the job's interval
	// with checkpoint bytes kept in memory, and every SaveCheckpoint timed.
	inproc := make([]float64, len(fx.specs))
	var saves, sizes []float64
	for i, spec := range fx.specs {
		ms, err := runInProcess(tr, spec)
		if err != nil {
			return nil, err
		}
		inproc[i] = ms
		sv, sz, err := timeSaves(tr, spec)
		if err != nil {
			return nil, err
		}
		saves = append(saves, sv...)
		sizes = append(sizes, sz...)
	}
	var submit, wait, exec, ckpts, overhead []float64
	for i, jr := range runs {
		if jr.failure != "" {
			continue
		}
		subject := fmt.Sprintf("job %d (%s)", i, fx.specs[jr.spec].Name)
		id := tr.add("server.job", subject, root, jr.submit, jr.done)
		tr.add("server.submit", subject, id, jr.submit, jr.accepted)
		tr.add("server.queue_wait", subject, id, jr.accepted, jr.started)
		tr.add("server.exec", subject, id, jr.started, jr.done)
		for _, at := range jr.ckpts {
			tr.add("server.checkpoint", subject, id, at, at)
		}
		ex := jr.done.Sub(jr.started).Seconds() * 1e3
		submit = append(submit, jr.accepted.Sub(jr.submit).Seconds()*1e3)
		wait = append(wait, jr.started.Sub(jr.accepted).Seconds()*1e3)
		exec = append(exec, ex)
		ckpts = append(ckpts, float64(jr.checkpoint))
		overhead = append(overhead, ex-inproc[jr.spec])
	}
	o.setLayer("server.submit_ms", mean(submit))
	o.setLayer("server.queue_wait_ms", mean(wait))
	o.setLayer("server.exec_ms", mean(exec))
	o.setLayer("server.checkpoints_per_job", mean(ckpts))
	o.setLayer("server.overhead_ms", mean(overhead))
	o.setLayer("snapshot.save_ms", median(saves))
	o.setLayer("snapshot.bytes", mean(sizes))

	var led ledger
	for _, spec := range fx.specs {
		opts, cfgs, err := jobOptions(spec)
		if err != nil {
			return nil, err
		}
		for _, cfg := range cfgs {
			cfg.Name = spec.Name
			s := shape{cfg: cfg, params: opts.Params(cfg), warmup: opts.WarmupTxns, window: opts.MeasuredTxns(), freshZeta: true}
			if err := traceShape(tr, &led, &o.tally, s); err != nil {
				return nil, err
			}
		}
	}
	led.report(o)
	o.note = fmt.Sprintf("traced round of %d jobs, %d shapes replayed", len(runs), len(fx.specs))
	return o, nil
}

// runInProcess times RunCheckpointed of a spec at its checkpoint interval
// (the server default when the spec sets none), keeping checkpoints in
// memory, and returns milliseconds.
func runInProcess(tr *tracer, spec server.JobSpec) (float64, error) {
	o, cfgs, err := jobOptions(spec)
	if err != nil {
		return 0, err
	}
	var last []byte
	cr := experiments.CheckpointRun{Every: jobInterval(spec), Write: func(data []byte) error {
		last = append(last[:0], data...)
		return nil
	}}
	id := tr.begin("experiments.run_checkpointed", spec.Name, 0)
	for _, cfg := range cfgs {
		if _, _, err := o.RunCheckpointed(cfg, cr); err != nil {
			tr.end(id)
			return 0, err
		}
	}
	return tr.end(id) / 1e6, nil
}

// jobInterval is the checkpoint quantum the server applies to spec.
func jobInterval(spec server.JobSpec) uint64 {
	if spec.CheckpointEvery != nil {
		return *spec.CheckpointEvery
	}
	return serverDefaultInterval
}

// serverDefaultInterval is cmd/oltpserver's -checkpoint-every default.
const serverDefaultInterval = 500

// timeSaves runs a spec's protocol in checkpoint quanta, as
// RunCheckpointed does, and times every SaveCheckpoint at those
// boundaries; it returns each save's milliseconds and bytes.
func timeSaves(tr *tracer, spec server.JobSpec) (ms, size []float64, err error) {
	o, cfgs, err := jobOptions(spec)
	if err != nil {
		return nil, nil, err
	}
	every := jobInterval(spec)
	var buf bytes.Buffer
	for _, cfg := range cfgs {
		sys, err := newMachine(o, cfg)
		if err != nil {
			return nil, nil, err
		}
		save := func(phase uint8, base uint64) error {
			buf.Reset()
			id := tr.begin("snapshot.save", spec.Name, 0)
			err := experiments.SaveCheckpoint(&buf, sys, phase, base)
			ms = append(ms, tr.end(id)/1e6)
			size = append(size, float64(buf.Len()))
			return err
		}
		for sys.Committed() < o.WarmupTxns {
			next := min(o.WarmupTxns, sys.Committed()+every)
			sys.RunUntil(next)
			if next < o.WarmupTxns {
				if err := save(experiments.CheckpointWarming, 0); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := save(experiments.CheckpointWarmed, 0); err != nil {
			return nil, nil, err
		}
		base := sys.Committed()
		sys.ResetStats()
		for target := base + o.MeasuredTxns(); sys.Committed() < target; {
			sys.RunUntil(min(target, sys.Committed()+every))
			if err := save(experiments.CheckpointMeasuring, base); err != nil {
				return nil, nil, err
			}
		}
	}
	return ms, size, nil
}
