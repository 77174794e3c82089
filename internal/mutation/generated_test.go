package mutation

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cloudmon/internal/codegen"
	"cloudmon/internal/openstack"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// These tests run the monitors uml2go generates as what they are:
// binaries built by a plain go build (downloads off), in front of the
// simulated cloud served on loopback. The labs drive them through the
// same request matrices as the in-process monitors.

// generateMonitor writes the monitor uml2go generates for m into a new
// directory and returns it.
func generateMonitor(t *testing.T, m *uml.Model, project string) string {
	t.Helper()
	runtime, err := codegen.FindRuntime(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := codegen.Generate(m, codegen.Options{Project: project, Runtime: runtime})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := codegen.WriteFiles(dir, res.Files); err != nil {
		t.Fatal(err)
	}
	return dir
}

// buildMonitor builds the generated module in dir and returns the binary.
func buildMonitor(t *testing.T, dir string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(dir, filepath.Base(dir)+".bin")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build of the generated monitor: %v\n%s", err, out)
	}
	return bin
}

// monitorProc is a generated monitor running as a process.
type monitorProc struct {
	cmd     *exec.Cmd
	proxy   string // the proxy's base URL
	inspect string // the inspect API's base URL
	stderr  bytes.Buffer
	done    chan struct{}
}

// startProc runs bin with args, which bind the proxy and the inspect API
// to ":0" ports, and learns both addresses from the banner.
func startProc(bin string, args ...string) (*monitorProc, error) {
	p := &monitorProc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	for p.inspect == "" && sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "cloud monitor ("); ok {
			_, addr, _ := strings.Cut(rest, " mode) on ")
			p.proxy = "http://" + strings.TrimSuffix(strings.Fields(addr)[0], ",")
		} else if addr, ok := strings.CutPrefix(line, "  inspect API on "); ok {
			p.inspect = "http://" + strings.Fields(addr)[0]
		}
	}
	go func() {
		for sc.Scan() {
		}
		p.cmd.Wait()
		close(p.done)
	}()
	if p.proxy == "" || p.inspect == "" {
		p.stop()
		return nil, fmt.Errorf("%s printed no proxy and inspect addresses: %s", bin, p.stderr.String())
	}
	return p, nil
}

// stop sends SIGTERM, the monitor's drain signal, and kills the process
// if it has not exited within ten seconds.
func (p *monitorProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// violations reads the monitor's outcome counters from its inspect API
// and returns the number of violation verdicts.
func (p *monitorProc) violations() (int, error) {
	resp, err := http.Get(p.inspect + "/outcomes")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Outcomes map[string]int `json:"outcomes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, err
	}
	n := 0
	for outcome, count := range doc.Outcomes {
		if strings.HasPrefix(outcome, "violation:") {
			n += count
		}
	}
	return n, nil
}

// cloudLog records the requests that reach the cloud, by method and
// escaped path.
type cloudLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *cloudLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+r.URL.EscapedPath())
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (l *cloudLog) requests() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.reqs...)
}

// procStarter starts each lab's monitor as a process of bin in the given
// mode, in front of the lab's cloud on loopback. Starting a lab's monitor
// stops the previous lab's, whose violations a campaign has read by then.
// last holds the newest lab's cloud requests.
type procStarter struct {
	t    *testing.T
	bin  string
	mode string
	prev func()
	last *cloudLog
}

func newProcStarter(t *testing.T, bin, mode string) *procStarter {
	s := &procStarter{t: t, bin: bin, mode: mode}
	t.Cleanup(s.stopPrev)
	return s
}

func (s *procStarter) stopPrev() {
	if s.prev != nil {
		s.prev()
		s.prev = nil
	}
}

func (s *procStarter) start(cloud http.Handler, project string) (string, func() int, error) {
	s.stopPrev()
	s.last = &cloudLog{}
	srv := httptest.NewServer(s.last.wrap(cloud))
	p, err := startProc(s.bin, "-cloud", srv.URL, "-project", project, "-mode", s.mode,
		"-addr", "127.0.0.1:0", "-inspect-addr", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	s.prev = func() {
		p.stop()
		srv.Close()
	}
	violations := func() int {
		n, err := p.violations()
		if err != nil {
			s.t.Errorf("reading the violations of %s: %v", s.bin, err)
			return -1
		}
		return n
	}
	return p.proxy, violations, nil
}

// TestGeneratedCinderMonitorKillsCatalogue: the generated Cinder monitor,
// in observe mode, finds on the clean cloud no violation and on each
// mutant of the catalogue exactly the violations the in-process lab
// finds.
func TestGeneratedCinderMonitorKillsCatalogue(t *testing.T) {
	bin := buildMonitor(t, generateMonitor(t, paper.CinderModel(), "cindermon"))
	want, err := RunCampaign(Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	starter := newProcStarter(t, bin, "observe")
	got, err := runCampaign(Catalogue(), func() (campaignLab, error) {
		env, err := newLabEnv(paper.CinderModel(), openstack.Seed{Quota: labQuota}, 0, starter.start)
		if err != nil {
			return nil, err
		}
		return &Lab{env}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BaselineViolations != 0 || got.BaselineRequests != want.BaselineRequests {
		t.Errorf("clean cloud: %d violations in %d requests, want 0 in %d",
			got.BaselineViolations, got.BaselineRequests, want.BaselineRequests)
	}
	if got.Killed() != len(Catalogue()) {
		t.Errorf("generated monitor killed %d/%d mutants", got.Killed(), len(Catalogue()))
	}
	t.Logf("generated monitor: killed %d/%d; clean cloud %d violations in %d requests",
		got.Killed(), len(got.Runs), got.BaselineViolations, got.BaselineRequests)
	for i, run := range got.Runs {
		if w := want.Runs[i]; run.Violations != w.Violations || run.Requests != w.Requests {
			t.Errorf("%s: %d violations in %d requests, in process %d in %d",
				run.MutantID, run.Violations, run.Requests, w.Violations, w.Requests)
		}
	}
}

// TestGeneratedNovaMonitorKillsCatalogue: the generated Nova monitor
// kills the compute catalogue with the in-process lab's violations,
// judges the clean cloud clean, and forwards server requests to the
// compute API.
func TestGeneratedNovaMonitorKillsCatalogue(t *testing.T) {
	bin := buildMonitor(t, generateMonitor(t, paper.NovaModel(), "novamon"))
	starter := newProcStarter(t, bin, "observe")
	var baseline *cloudLog
	var project string
	got, err := runCampaign(NovaCatalogue(), func() (campaignLab, error) {
		env, err := newLabEnv(paper.NovaModel(), openstack.Seed{}, 0, starter.start)
		if err != nil {
			return nil, err
		}
		if baseline == nil {
			baseline, project = starter.last, env.ProjectID
		}
		return &NovaLab{labEnv: env}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BaselineViolations != 0 || got.Killed() != len(NovaCatalogue()) {
		t.Errorf("clean cloud %d violations, killed %d/%d", got.BaselineViolations, got.Killed(), len(NovaCatalogue()))
	}
	want, err := RunNovaCampaign(NovaCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range got.Runs {
		if w := want.Runs[i]; run.Violations != w.Violations {
			t.Errorf("%s: %d violations, in process %d", run.MutantID, run.Violations, w.Violations)
		}
	}
	creates := 0
	for _, req := range baseline.requests() {
		if req == "POST /compute/v2.1/"+project+"/servers" {
			creates++
		}
		if strings.HasPrefix(req, "POST /volume/") {
			t.Errorf("a server request reached the volume API: %s", req)
		}
	}
	// In observe mode the monitor forwards all three creates of the clean
	// matrix (admin, member and user); the cloud refuses the user's.
	if creates != 3 {
		t.Errorf("%d POST /projects/{p}/servers reached the cloud as POST /compute/v2.1/{p}/servers, want 3", creates)
	}
}

// TestGeneratedMonitorEnforces: in enforce mode the generated monitor
// answers the requests its contracts forbid with the runtime's 412, and a
// crafted id whose escaped slashes would climb into another project
// reaches the cloud as no other path.
func TestGeneratedMonitorEnforces(t *testing.T) {
	bin := buildMonitor(t, generateMonitor(t, paper.CinderModel(), "cindermon"))
	starter := newProcStarter(t, bin, "enforce")
	env, err := newLabEnv(paper.CinderModel(), openstack.Seed{Quota: labQuota}, 0, starter.start)
	if err != nil {
		t.Fatal(err)
	}
	lab := &Lab{env}
	target := lab.post(paper.RoleAdmin)
	if target == "" {
		t.Fatal("the admin's create failed")
	}
	volume := lab.volumesPath() + "/" + target
	body := map[string]map[string]any{"volume": {"name": "v", "size": 1}}
	for _, c := range []struct {
		role, method, path string
		in                 any
	}{
		{paper.RoleUser, http.MethodPost, lab.volumesPath(), body},
		{paper.RoleUser, http.MethodPut, volume, body},
		{paper.RoleMember, http.MethodDelete, volume, nil},
		{paper.RoleUser, http.MethodDelete, volume, nil},
	} {
		status, _ := lab.as(c.role).Do(c.method, c.path, c.in, nil, nil)
		if status != http.StatusPreconditionFailed {
			t.Errorf("%s %s as %s: %d, want 412", c.method, c.path, c.role, status)
		}
	}

	const crafted = "..%2F..%2Fp2%2Fvolumes%2Fv9"
	before := len(starter.last.requests())
	req, err := http.NewRequest(http.MethodDelete, lab.monClient.BaseURL+lab.volumesPath()+"/"+crafted, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Auth-Token", lab.tokens[paper.RoleAdmin])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Errorf("DELETE of the crafted id answered %d", resp.StatusCode)
	}
	for _, r := range starter.last.requests()[before:] {
		for _, seg := range strings.Split(r, "/") {
			if seg == ".." || seg == "p2" {
				t.Errorf("the crafted id reached the cloud as another path: %s", r)
			}
		}
	}
}

// TestGeneratedMonitorRefusesEditedModel: a model.xmi edited after
// generation, here by widening the guard of the DELETE that leaves
// volumes behind, no longer has the contract digest contracts.go
// records. The rebuilt binary exits non-zero before it listens, naming
// both digests.
func TestGeneratedMonitorRefusesEditedModel(t *testing.T) {
	dir := generateMonitor(t, paper.CinderModel(), "cindermon")
	path := filepath.Join(dir, "model.xmi")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const guard, widened = "project.volumes-&gt;size() &gt; 1 and", "project.volumes-&gt;size() &gt;= 1 and"
	if bytes.Count(data, []byte(guard)) != 1 {
		t.Fatalf("model.xmi has no single %q", guard)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(guard), []byte(widened), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildMonitor(t, dir)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-project", "p1", "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() == 0 {
		t.Fatalf("edited monitor: %v, want a non-zero exit", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("edited monitor printed before refusing:\n%s", stdout.String())
	}
	contracts, err := os.ReadFile(filepath.Join(dir, "contracts.go"))
	if err != nil {
		t.Fatal(err)
	}
	_, recorded, _ := strings.Cut(string(contracts), "const contractsDigest = \"")
	recorded, _, _ = strings.Cut(recorded, "\"")
	msg := stderr.String()
	if recorded == "" || strings.Count(msg, "sha256:") != 2 || !strings.Contains(msg, recorded) {
		t.Errorf("refusal does not name the recorded digest %q and the model's: %s", recorded, msg)
	}
}
