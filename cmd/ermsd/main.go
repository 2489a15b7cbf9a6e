// Command ermsd runs an ERMS deployment as a long-lived service: a System
// in service mode (paced against the real wall clock) behind the HTTP
// control plane from internal/server.
//
// Usage:
//
//	ermsd                                 # defaults: :7730, paper testbed shape
//	ermsd -addr 127.0.0.1:9900 -shards 4  # federated namespace on a custom port
//	ermsd -trace -journal                 # enable /v1/trace and journal fencing
//
// Drive it with curl (see OPERATIONS.md for the full runbook):
//
//	curl -s localhost:7730/v1/status | jq .
//	curl -s -XPOST localhost:7730/v1/ops -d '{"ops":[{"op":"create","path":"/a","size_mb":192}]}'
//	curl -s -XPOST 'localhost:7730/v1/ops?format=trace' --data-binary @trace.json
//	curl -s localhost:7730/metrics
//	curl -s -XPOST localhost:7730/v1/drain
//
// The virtual cluster's heartbeats, judge windows, and repairs fire on
// real-time schedule: a pacer pump keeps the engine caught up with the
// wall clock between requests, so scraping /metrics every 15s watches the
// control loop actually run.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	"erms"
	"erms/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ermsd: ")
	var (
		addr    = flag.String("addr", ":7730", "HTTP listen address")
		racks   = flag.Int("racks", 0, "racks in the cluster (0 = default 3)")
		nodes   = flag.Int("nodes", 0, "datanode count (0 = default 18)")
		shards  = flag.Int("shards", 0, "namenode shards the namespace is federated across (0 and 1 both mean one namenode)")
		tauM    = flag.Float64("taum", 0, "hot threshold τ_M (0 = paper default)")
		trace   = flag.Bool("trace", false, "record control-loop spans for /v1/trace")
		journal = flag.Bool("journal", false, "attach the write-ahead journal (epoch fencing, failover)")
		noERMS  = flag.Bool("no-erms", false, "run the vanilla triplicating baseline without the ERMS manager")
		hb      = flag.Bool("heartbeat", true, "run the heartbeat failure detector")
	)
	flag.Parse()

	opts := erms.Options{
		Racks:         *racks,
		Nodes:         *nodes,
		Shards:        *shards,
		EnableTrace:   *trace,
		EnableJournal: *journal,
		DisableERMS:   *noERMS,
		Clock:         erms.RealClock(),
	}
	if *tauM > 0 {
		th := erms.DefaultThresholds()
		th.TauM = *tauM
		opts.Thresholds = th
	}
	if *hb {
		opts.Heartbeat = erms.HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  10 * time.Minute,
		}
	}

	sys := erms.NewSystem(opts)
	srv := server.New(sys)
	if err := srv.StartPump(); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s (POST /v1/ops, GET /v1/status, GET /metrics)", ln.Addr())
	log.Fatal(http.Serve(ln, srv.Handler()))
}
