package prof

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// Remote names one more process to profile alongside this one: a
// daemon's -debug-addr listener, fetched over /debug/pprof. In a real
// multi-process deployment one Remote per daemon turns a phase capture
// into per-tier profiles.
type Remote struct {
	// Name labels the daemon's artifacts and hotspot rows (e.g.
	// "edge0", "backend", "db1").
	Name string
	// Addr is the daemon's -debug-addr listen address (host:port).
	Addr string
}

// Options configures a Capturer.
type Options struct {
	// Dir receives the .pb.gz profile artifacts (typically the run's
	// artifact directory).
	Dir string
	// Remotes are additional processes to profile per phase.
	Remotes []Remote
	// Rates enables mutex and block profiling in this process for the
	// life of the Capturer (see EnableProfileRates), adding per-phase
	// mutex/block delta profiles to the capture. Remote daemons enable
	// their own sampling with their -profile-rates flag.
	Rates bool
	// Client overrides the HTTP client for remote fetches (per-request
	// timeouts are applied on top).
	Client *http.Client
}

// CapturedFile describes one profile artifact written into Options.Dir,
// for the caller to index in its run manifest.
type CapturedFile struct {
	// Name is the file name within Options.Dir.
	Name string
	// Desc says what the profile holds, in one line.
	Desc string
	// Phase is the experiment phase the profile covers.
	Phase string
	// Source is "proc" for this process or the Remote's name.
	Source string
}

// Capturer brackets experiment phases with profile capture: a CPU
// profile spanning the phase, allocation (and optionally mutex/block)
// delta profiles, and the same set fetched concurrently from every
// remote daemon. Parsed profiles accumulate into a HotspotSet for the
// top-N tables. Not safe for concurrent use; one phase at a time.
type Capturer struct {
	dir     string
	remotes []Remote
	client  *http.Client
	restore func()

	hotspots HotspotSet

	phase      string
	fileSlug   string
	cpuFile    *os.File
	baseline   map[string]*Profile
	remoteBase map[string]*Profile
	cpuFetch   map[string]chan fetchResult
	rates      bool
}

// remoteCPUSeconds is how long each remote CPU profile samples (the
// /debug/pprof/profile?seconds= parameter). A phase shorter than this
// waits for the fetch to finish; a longer phase is profiled for only
// its first remoteCPUSeconds.
const remoteCPUSeconds = 5

type fetchResult struct {
	data []byte
	err  error
}

// profileKinds are the cumulative local profiles delta-captured per
// phase; mutex and block join when rates are on.
var baseKinds = []string{"allocs"}
var rateKinds = []string{"mutex", "block"}

// NewCapturer validates the options, preflights every remote (a daemon
// that is not serving its -debug-addr fails here, before any phase
// runs), and enables the contention-profile rates when asked. Call
// Close when done to restore them.
func NewCapturer(opts Options) (*Capturer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("prof: capture needs a directory for profile artifacts")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Capturer{
		dir:     opts.Dir,
		remotes: opts.Remotes,
		client:  client,
		rates:   opts.Rates,
	}
	for _, r := range opts.Remotes {
		if r.Name == "" || r.Addr == "" {
			return nil, fmt.Errorf("prof: remote needs name and address (got %q=%q)", r.Name, r.Addr)
		}
		if _, err := c.fetch(r.Addr, "/healthz", 5*time.Second); err != nil {
			return nil, fmt.Errorf("prof: daemon %q is not serving debug endpoints at %s: %w (is it running with -debug-addr=%s?)",
				r.Name, r.Addr, err, r.Addr)
		}
	}
	if opts.Rates {
		c.restore = EnableProfileRates()
	}
	return c, nil
}

// Close restores the contention-profile rates. It does not abort an
// in-flight phase; call EndPhase first.
func (c *Capturer) Close() {
	if c.restore != nil {
		c.restore()
		c.restore = nil
	}
}

// Hotspots returns the aggregation over every phase captured so far.
func (c *Capturer) Hotspots() *HotspotSet { return &c.hotspots }

// StartPhase begins capture for one named phase: snapshots the
// cumulative local profiles as deltas' baselines, starts the in-process
// CPU profile (refusing to stack on a concurrent one), and kicks off
// the remote CPU fetches so they sample the phase itself.
func (c *Capturer) StartPhase(name string) error {
	if c.phase != "" {
		return fmt.Errorf("prof: phase %q still capturing; one CPU profile per process", c.phase)
	}
	slug := fileSlug(name)

	baseline := make(map[string]*Profile)
	for _, kind := range c.localKinds() {
		p, err := lookupProfile(kind)
		if err != nil {
			return err
		}
		baseline[kind] = p
	}

	f, err := os.Create(filepath.Join(c.dir, "cpu_"+slug+".pb.gz"))
	if err != nil {
		return fmt.Errorf("prof: cpu profile file: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("prof: cannot start CPU profile for phase %q: %w (a CPU profile is already active — only one per process; is something scraping /debug/pprof/profile concurrently?)", name, err)
	}

	remoteBase := make(map[string]*Profile)
	cpuFetch := make(map[string]chan fetchResult)
	for _, r := range c.remotes {
		data, err := c.fetch(r.Addr, "/debug/pprof/heap?gc=1", 15*time.Second)
		if err != nil {
			c.abortCPU(f)
			return fmt.Errorf("prof: heap baseline from %q: %w", r.Name, err)
		}
		p, err := Parse(data)
		if err != nil {
			c.abortCPU(f)
			return fmt.Errorf("prof: heap baseline from %q: %w", r.Name, err)
		}
		remoteBase[r.Name] = p
		ch := make(chan fetchResult, 1)
		addr := r.Addr
		go func() {
			data, err := c.fetch(addr, fmt.Sprintf("/debug/pprof/profile?seconds=%d", remoteCPUSeconds),
				time.Duration(remoteCPUSeconds)*time.Second+30*time.Second)
			ch <- fetchResult{data: data, err: err}
		}()
		cpuFetch[r.Name] = ch
	}

	c.phase, c.fileSlug, c.cpuFile = name, slug, f
	c.baseline, c.remoteBase, c.cpuFetch = baseline, remoteBase, cpuFetch
	return nil
}

// abortCPU unwinds a half-started phase.
func (c *Capturer) abortCPU(f *os.File) {
	pprof.StopCPUProfile()
	f.Close()
	os.Remove(f.Name())
}

// EndPhase stops the phase's capture, writes every profile artifact,
// folds the parsed profiles into the hotspot aggregation, and returns
// the files written (for manifest indexing). The remote CPU fetches are
// awaited here — a phase shorter than remoteCPUSeconds blocks until the
// remote sampling window closes.
func (c *Capturer) EndPhase() ([]CapturedFile, error) {
	if c.phase == "" {
		return nil, fmt.Errorf("prof: EndPhase without StartPhase")
	}
	phase, slug := c.phase, c.fileSlug
	defer func() {
		c.phase, c.fileSlug, c.cpuFile = "", "", nil
		c.baseline, c.remoteBase, c.cpuFetch = nil, nil, nil
	}()

	var files []CapturedFile

	pprof.StopCPUProfile()
	if err := c.cpuFile.Close(); err != nil {
		return nil, fmt.Errorf("prof: cpu profile: %w", err)
	}
	cpuName := "cpu_" + slug + ".pb.gz"
	data, err := os.ReadFile(filepath.Join(c.dir, cpuName))
	if err != nil {
		return nil, fmt.Errorf("prof: cpu profile: %w", err)
	}
	cpuProf, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("prof: cpu profile for %s: %w", phase, err)
	}
	c.hotspots.AddCPU(phase, "proc", cpuProf)
	files = append(files, CapturedFile{Name: cpuName, Phase: phase, Source: "proc",
		Desc: "in-process CPU profile spanning the " + phase + " phase (go tool pprof)"})

	for _, kind := range c.localKinds() {
		post, err := lookupProfile(kind)
		if err != nil {
			return nil, err
		}
		delta := post.Sub(c.baseline[kind])
		name := profileFileName(kind, slug, "")
		if err := c.writeProfile(name, delta); err != nil {
			return nil, err
		}
		if kind == "allocs" {
			c.hotspots.AddAlloc(phase, "proc", delta)
		}
		files = append(files, CapturedFile{Name: name, Phase: phase, Source: "proc",
			Desc: "in-process " + kindDesc(kind) + " delta profile for the " + phase + " phase"})
	}

	for _, r := range c.remotes {
		res := <-c.cpuFetch[r.Name]
		if res.err != nil {
			return nil, fmt.Errorf("prof: cpu profile from %q: %w", r.Name, res.err)
		}
		name := "cpu_" + slug + "_" + fileSlug(r.Name) + ".pb.gz"
		if err := os.WriteFile(filepath.Join(c.dir, name), res.data, 0o644); err != nil {
			return nil, fmt.Errorf("prof: %s: %w", name, err)
		}
		p, err := Parse(res.data)
		if err != nil {
			return nil, fmt.Errorf("prof: cpu profile from %q: %w", r.Name, err)
		}
		c.hotspots.AddCPU(phase, r.Name, p)
		files = append(files, CapturedFile{Name: name, Phase: phase, Source: r.Name,
			Desc: fmt.Sprintf("CPU profile of daemon %q (%ds sample) during the %s phase", r.Name, remoteCPUSeconds, phase)})

		heapData, err := c.fetch(r.Addr, "/debug/pprof/heap?gc=1", 15*time.Second)
		if err != nil {
			return nil, fmt.Errorf("prof: heap profile from %q: %w", r.Name, err)
		}
		post, err := Parse(heapData)
		if err != nil {
			return nil, fmt.Errorf("prof: heap profile from %q: %w", r.Name, err)
		}
		delta := post.Sub(c.remoteBase[r.Name])
		name = profileFileName("allocs", slug, fileSlug(r.Name))
		if err := c.writeProfile(name, delta); err != nil {
			return nil, err
		}
		c.hotspots.AddAlloc(phase, r.Name, delta)
		files = append(files, CapturedFile{Name: name, Phase: phase, Source: r.Name,
			Desc: fmt.Sprintf("allocation delta profile of daemon %q for the %s phase", r.Name, phase)})
	}
	return files, nil
}

// localKinds lists the cumulative local profiles captured per phase.
func (c *Capturer) localKinds() []string {
	if c.rates {
		return append(append([]string(nil), baseKinds...), rateKinds...)
	}
	return baseKinds
}

// profileFileName maps (kind, phase, source) to the artifact name:
// heap_evaluation.pb.gz, mutex_evaluation.pb.gz,
// heap_evaluation_db0.pb.gz.
func profileFileName(kind, slug, source string) string {
	base := kind
	if kind == "allocs" {
		base = "heap"
	}
	if source != "" {
		return base + "_" + slug + "_" + source + ".pb.gz"
	}
	return base + "_" + slug + ".pb.gz"
}

func kindDesc(kind string) string {
	switch kind {
	case "allocs":
		return "allocation (alloc_space/alloc_objects)"
	case "mutex":
		return "mutex contention"
	case "block":
		return "blocking (channel/mutex wait)"
	default:
		return kind
	}
}

func (c *Capturer) writeProfile(name string, p *Profile) error {
	data, err := Encode(p)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.dir, name), data, 0o644); err != nil {
		return fmt.Errorf("prof: %s: %w", name, err)
	}
	return nil
}

// lookupProfile captures a named cumulative runtime profile (allocs,
// mutex, block) and parses it. For allocs a GC runs first: the runtime
// publishes allocation samples to the profile only at GC-cycle
// boundaries, so without one the delta misses everything allocated
// since the last collection.
func lookupProfile(kind string) (*Profile, error) {
	lp := pprof.Lookup(kind)
	if lp == nil {
		return nil, fmt.Errorf("prof: no runtime profile named %q", kind)
	}
	if kind == "allocs" {
		runtime.GC()
	}
	var buf bytes.Buffer
	if err := lp.WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("prof: capture %s profile: %w", kind, err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("prof: parse %s profile: %w", kind, err)
	}
	return p, nil
}

// fetch GETs a debug endpoint with a per-request timeout.
func (c *Capturer) fetch(addr, path string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxDecompressed))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		snippet := string(body)
		if len(snippet) > 120 {
			snippet = snippet[:120]
		}
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(snippet))
	}
	return body, nil
}

// fileSlug makes a phase or source name filename-safe.
func fileSlug(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}
