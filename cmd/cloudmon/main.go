// Command cloudmon runs the cloud monitor proxy against a private cloud,
// generating contracts from an XMI model file (or the bundled Cinder
// example when -xmi is omitted):
//
//	cloudmon -cloud http://127.0.0.1:8776 -project <id> -addr :8000 \
//	         -xmi diagrams.xmi -mode enforce
//
// The monitor authenticates to the cloud with a service account
// (-svc-user/-svc-pass) and exposes the model's URI space, e.g.
// /projects/{project_id}/volumes/{volume_id}.
//
// In a horizontally sharded fleet each instance runs with -instance
// (stamping its audit records, labelling its metrics and serving /metrics
// on the inspect listener), and one process runs as the routing front
// tier:
//
//	cloudmon -fleet-front 'm-00=http://h0:8000|http://h0:8001,m-01=http://h1:8000|http://h1:8001' \
//	         -addr :9000 -metrics-addr :9002
//
// The front routes each request to the instance owning its project under
// rendezvous hashing and serves the federated /metrics of the whole fleet.
//
// On SIGTERM/SIGINT the monitor drains in order: the proxy listener stops
// accepting, deferred post-verifications finish, the audit trail is
// flushed — and only then do the inspect and metrics listeners close, so
// a final scrape still sees the complete counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/core"
	"cloudmon/internal/fleet"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/paper"
	"cloudmon/internal/slice"
	"cloudmon/internal/uml"
	"cloudmon/internal/xmi"
)

// splitCSV splits a comma-separated flag value into trimmed parts.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudmon:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cloudmon", flag.ContinueOnError)
	addr := fs.String("addr", ":8000", "listen address")
	cloudURL := fs.String("cloud", "http://127.0.0.1:8776", "private cloud base URL")
	xmiPath := fs.String("xmi", "", "XMI model file (default: bundled Cinder example)")
	modeName := fs.String("mode", "enforce", "monitor mode: enforce | observe")
	inspectAddr := fs.String("inspect-addr", "", "optional listen address for the coverage/outcome API (e.g. 127.0.0.1:8001)")
	levelName := fs.String("level", "full", "contract check level: full | pre-only")
	postName := fs.String("post", "sync", "post-verification mode: sync | async (defer post-checks to a bounded worker queue)")
	postQueue := fs.Int("post-queue", 0, "async post queue capacity (0 = default)")
	postWorkers := fs.Int("post-workers", 0, "async post worker pool size (0 = default)")
	backpressureName := fs.String("post-backpressure", "block", "saturated async queue policy: block | shed")
	logFile := fs.String("log-file", "", "append verdicts as NDJSON to this file")
	metricsAddr := fs.String("metrics-addr", "", "optional listen address for the Prometheus-text /metrics endpoint (e.g. 127.0.0.1:8002)")
	auditDir := fs.String("audit-dir", "", "directory for the append-only audit trail (violations and Unverified outcomes)")
	auditMaxBytes := fs.Int64("audit-max-bytes", 0, "rotate audit segments at this size (0 = 8 MiB default)")
	secReqs := fs.String("secreqs", "", "comma-separated SecReq tags to slice the model to (e.g. 1.3,1.4)")
	methods := fs.String("methods", "", "comma-separated HTTP methods to slice the model to (e.g. DELETE,PUT)")
	svcUser := fs.String("svc-user", "cm-svc", "monitor service-account user")
	svcPass := fs.String("svc-pass", "pw-svc", "monitor service-account password")
	project := fs.String("project", "", "project the service account is scoped to (required)")
	printContracts := fs.Bool("contracts", false, "print generated contracts at startup")
	instance := fs.String("instance", "",
		"fleet instance id: stamps audit records, labels every metric with instance=<id>, and serves /metrics on the inspect listener")
	frontSpec := fs.String("fleet-front", "",
		"run as a fleet front instead of a monitor: comma-separated id=proxyURL[|inspectURL] members, routed by rendezvous hash on the project")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *frontSpec != "" {
		return runFront(*frontSpec, *addr, *metricsAddr, *shutdownTimeout)
	}
	if *project == "" {
		return fmt.Errorf("-project is required (the seeded project id; cloudsim prints it)")
	}

	var (
		model *uml.Model
		err   error
	)
	if *xmiPath != "" {
		model, err = xmi.ReadFile(*xmiPath)
		if err != nil {
			return err
		}
	} else {
		model = paper.CinderModel()
	}

	mode, err := monitor.ParseMode(*modeName)
	if err != nil {
		return err
	}
	level, err := monitor.ParseCheckLevel(*levelName)
	if err != nil {
		return err
	}
	postMode, err := monitor.ParsePostMode(*postName)
	if err != nil {
		return err
	}
	backpressure, err := monitor.ParseBackpressure(*backpressureName)
	if err != nil {
		return err
	}

	// Optional model slicing (paper §VI.B future work): monitor only the
	// selected scenarios.
	var preds []slice.Predicate
	if *secReqs != "" {
		preds = append(preds, slice.BySecReqs(splitCSV(*secReqs)...))
	}
	if *methods != "" {
		var ms []uml.HTTPMethod
		for _, m := range splitCSV(*methods) {
			ms = append(ms, uml.HTTPMethod(strings.ToUpper(m)))
		}
		preds = append(preds, slice.ByMethods(ms...))
	}
	if len(preds) > 0 {
		model, err = slice.Model(model, slice.Any(preds...))
		if err != nil {
			return err
		}
		fmt.Printf("sliced model: %d transitions remain\n", len(model.Behavioral.Transitions))
	}

	// The sinks are closed, and their errors reported, once the monitor
	// has drained; this deferred close only covers the error returns.
	sinks := &verdictSinks{}
	defer sinks.close()
	var onVerdict func(monitor.Verdict)
	if *logFile != "" {
		f, err := os.OpenFile(*logFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open log file: %w", err)
		}
		sinks.logPath, sinks.log = *logFile, f
		sinks.writer = monitor.NewAuditWriter(f)
		onVerdict = sinks.writer.Record
	}

	var audit *obs.AuditLog
	if *auditDir != "" {
		audit, err = obs.OpenAuditLog(*auditDir, *auditMaxBytes)
		if err != nil {
			return fmt.Errorf("open audit log: %w", err)
		}
		sinks.audit = audit
	}

	sys, err := core.Build(core.Options{
		Model:    model,
		CloudURL: *cloudURL,
		ServiceAccount: osbinding.ServiceAccount{
			User: *svcUser, Password: *svcPass, ProjectID: *project,
		},
		InstanceID:       *instance,
		Mode:             mode,
		Level:            level,
		Post:             postMode,
		PostQueueCap:     *postQueue,
		PostWorkers:      *postWorkers,
		PostBackpressure: backpressure,
		OnVerdict:        onVerdict,
		Audit:            audit,
	})
	if err != nil {
		return err
	}

	fmt.Printf("cloud monitor (%s mode) on %s, proxying %s\n", mode, *addr, *cloudURL)
	if *instance != "" {
		fmt.Printf("  fleet instance %s (audit stamp, metric label, /metrics on the inspect listener)\n", *instance)
	}
	fmt.Printf("  %d contracts over model %q; security requirements %v\n",
		len(sys.Contracts.Contracts), model.Resource.Name, sys.Contracts.SecReqs())
	for _, r := range sys.Routes {
		fmt.Printf("  %-6s %-45s -> %s\n", r.Trigger.Method, r.Pattern, r.Backend)
	}
	if *printContracts {
		fmt.Println()
		fmt.Print(contract.RenderSet(sys.Contracts, contract.StyleConjunction))
	}
	if audit != nil {
		fmt.Printf("  audit trail in %s\n", audit.Dir())
	}
	// Observability listeners. When -instance is set the inspect mux also
	// serves /metrics, so a remote front can federate this instance through
	// the single inspect URL in its -fleet-front member spec.
	var aux []*http.Server
	if *inspectAddr != "" {
		fmt.Printf("  inspect API on %s (/coverage /outcomes /contracts /stages)\n", *inspectAddr)
		handler := sys.Monitor.InspectHandler()
		if *instance != "" {
			mux := http.NewServeMux()
			mux.Handle("/metrics", sys.Metrics.Handler())
			mux.Handle("/", handler)
			handler = mux
		}
		aux = append(aux, newServer(*inspectAddr, handler))
	}
	if *metricsAddr != "" {
		fmt.Printf("  metrics on %s/metrics\n", *metricsAddr)
		mux := http.NewServeMux()
		mux.Handle("/metrics", sys.Metrics.Handler())
		aux = append(aux, newServer(*metricsAddr, mux))
	}
	proxy := newServer(*addr, sys.Monitor)

	err = serve(proxy, aux, *shutdownTimeout, func(ctx context.Context) {
		// Shutdown order matters: the proxy has stopped accepting and its
		// in-flight requests have finished; now land every deferred
		// verdict and flush the trail while the metrics and inspect
		// listeners are still up, so a final scrape sees the complete run.
		sys.Monitor.Close()
		if audit != nil {
			if serr := audit.Sync(); serr != nil {
				fmt.Fprintln(os.Stderr, "cloudmon: flush audit trail:", serr)
			}
		}
	})
	// Every verdict has landed once the monitor is closed; only then can
	// the sinks tell whether they recorded them all.
	sys.Monitor.Close()
	return errors.Join(err, sinks.close())
}

// verdictSinks are the files cloudmon records verdicts to: the -log-file
// NDJSON log of every verdict and the -audit-dir trail of every non-OK
// one. Each latches its first write error rather than fail a request, so
// the error is reported when the sinks close.
type verdictSinks struct {
	logPath string
	log     *os.File
	writer  *monitor.AuditWriter
	audit   *obs.AuditLog
}

// close closes the sinks and returns, each naming its sink, the write
// error every sink latched and every failed close. Closing twice is a
// no-op.
func (s *verdictSinks) close() error {
	var errs []error
	if s.log != nil {
		if err := s.writer.Err(); err != nil {
			errs = append(errs, fmt.Errorf("verdict log %s: %w", s.logPath, err))
		}
		if err := s.log.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close verdict log %s: %w", s.logPath, err))
		}
		s.log = nil
	}
	if s.audit != nil {
		if err := s.audit.Err(); err != nil {
			errs = append(errs, fmt.Errorf("audit trail %s: %w", s.audit.Dir(), err))
		}
		if err := s.audit.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close audit trail %s: %w", s.audit.Dir(), err))
		}
		s.audit = nil
	}
	return errors.Join(errs...)
}

// The timeouts every listener carries. A request takes as long as its
// verdict, which may wait on the cloud's own deadlines, so no write
// timeout bounds the answer.
const (
	// readHeaderTimeout frees the connection and goroutine of a client
	// that sends part of its headers and stalls. A client sends its
	// headers in one write, so 10 s is slack for any network a monitor
	// sits on.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds reading a whole request. The monitor forwards at
	// most a 1 MiB body (httpkit.MaxBodyBytes), which arrives within a
	// minute at 17 KiB/s.
	readTimeout = time.Minute
	// idleTimeout closes a keep-alive connection no request has used for
	// two minutes. It outlasts the 90 s after which Go clients, the fleet
	// front's among them, drop an idle pooled connection, so the client
	// closes first and never sends onto a connection the server is
	// closing.
	idleTimeout = 2 * time.Minute
)

// newServer returns a listener on addr serving h, with the timeouts above.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve runs the listeners; it is serveUntilSignal, and a test replaces
// it to inspect the servers run and runFront build.
var serve = serveUntilSignal

// serveUntilSignal runs the proxy and auxiliary listeners until one fails
// or SIGTERM/SIGINT arrives, then drains gracefully: proxy first, the
// drain hook second, observability listeners last.
func serveUntilSignal(proxy *http.Server, aux []*http.Server, timeout time.Duration, drain func(context.Context)) error {
	errCh := make(chan error, len(aux)+1)
	serve := func(srv *http.Server) {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}
	for _, srv := range aux {
		go serve(srv)
	}
	go serve(proxy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("received %s: draining (proxy -> deferred verdicts -> audit flush -> observability)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := proxy.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "cloudmon: proxy shutdown:", err)
		}
		if drain != nil {
			drain(ctx)
		}
		for _, srv := range aux {
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "cloudmon: listener shutdown:", err)
			}
		}
		return nil
	}
}

// runFront assembles the fleet front tier from the member spec and serves
// it: requests route to the instance owning their project, /metrics on
// the metrics listener serves the federated exposition of the whole
// fleet plus the front's own routing counters.
func runFront(spec, addr, metricsAddr string, timeout time.Duration) error {
	members, err := parseFleetMembers(spec)
	if err != nil {
		return err
	}
	front, err := fleet.NewFront(members)
	if err != nil {
		return err
	}
	reg := &obs.Registry{}
	front.RegisterMetrics(reg)

	fmt.Printf("fleet front on %s over %d instances (rendezvous-hash routing by project)\n", addr, len(members))
	for _, m := range members {
		fmt.Printf("  %s\n", m.ID)
	}
	var aux []*http.Server
	if metricsAddr != "" {
		fmt.Printf("  federated metrics on %s/metrics\n", metricsAddr)
		mux := http.NewServeMux()
		mux.Handle("/metrics", front.FederationHandler(reg))
		aux = append(aux, newServer(metricsAddr, mux))
	}
	return serve(newServer(addr, front), aux, timeout, nil)
}

// parseFleetMembers parses "id=proxyURL[|inspectURL]" entries.
func parseFleetMembers(spec string) ([]*fleet.Member, error) {
	var members []*fleet.Member
	for _, ent := range splitCSV(spec) {
		id, urls, ok := strings.Cut(ent, "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("bad -fleet-front entry %q (want id=proxyURL[|inspectURL])", ent)
		}
		proxyURL, inspectURL, _ := strings.Cut(urls, "|")
		if proxyURL == "" {
			return nil, fmt.Errorf("bad -fleet-front entry %q: empty proxy URL", ent)
		}
		m, err := fleet.NewRemoteMember(id, proxyURL, inspectURL, nil)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("-fleet-front lists no members")
	}
	return members, nil
}
