// Command cloudmon runs the cloud monitor proxy against a private cloud,
// generating contracts from an XMI model file (or the bundled Cinder
// example when -xmi is omitted):
//
//	cloudmon -cloud http://127.0.0.1:8776 -project <id> -addr :8000 \
//	         -xmi diagrams.xmi -mode enforce
//
// The monitor authenticates to the cloud with a service account
// (-svc-user/-svc-pass) and exposes the model's URI space, e.g.
// /projects/{project_id}/volumes/{volume_id}. It binds every listener
// before it prints the banner, which names each bound address.
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
//
// The command line is internal/monitorcmd's, which every monitor uml2go
// generates runs too.
package main

import (
	"fmt"
	"os"

	"cloudmon/internal/monitorcmd"
)

func main() {
	if err := monitorcmd.Run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cloudmon:", err)
		os.Exit(1)
	}
}
