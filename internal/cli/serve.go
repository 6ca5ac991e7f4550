package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"ftbfs"
	"ftbfs/internal/core"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// serveSignalContext returns the context the serve command runs under; it is
// cancelled by SIGINT/SIGTERM. Tests replace it to drive shutdown.
var serveSignalContext = func() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// serveReady is called with the bound address once the listener is up; tests
// replace it to discover :0 ports.
var serveReady = func(addr string) {}

// readRootGraph reads a graph file (or stdin for "-") as the root package
// type the store registers.
func readRootGraph(path string) (*ftbfs.Graph, error) {
	var r io.Reader
	if path == "-" || path == "" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return ftbfs.ReadGraph(r)
}

func cmdServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "", "persist directory (warm start + write-through); empty = memory only")
	capacity := fs.Int("cap", 128, "max structures resident in memory (0 = unlimited)")
	in := fs.String("in", "", "graph file to register at startup (text format)")
	sourcesSpec := fs.String("sources", "0", "comma-separated sources to pre-build for -in")
	epsSpec := fs.String("eps", "", "comma-separated ε grid to pre-build for -in (empty = none)")
	algName := fs.String("alg", "auto", "algorithm for pre-built structures")
	vertexSpec := fs.String("vertex-sources", "", "comma-separated sources to pre-build VERTEX-failure structures for -in (empty = none)")
	shard := fs.Bool("shard", false, "run as a cluster shard (identity in /healthz, /stats; route to it with `ftbfs route`; needs -wire)")
	wireAddr := fs.String("wire", "", "binary-protocol listen address, e.g. \":8090\" (empty = HTTP only; required with -shard); advertised via /readyz so routers discover it")
	id := fs.String("id", "", "node identity reported by /healthz and /stats (default: the bound address)")
	drainGrace := fs.Duration("drain-grace", 0, "on shutdown, keep serving with /readyz=503 this long so balancers stop routing here first")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight, "concurrent query/build requests served before queueing")
	maxQueued := fs.Int("max-queued", server.DefaultMaxQueued, "requests allowed to wait for a work slot before load shedding answers 503")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra debug-only address, e.g. \"localhost:6060\" (empty = off; never exposed on the serving listener)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shard && *wireAddr == "" {
		return fmt.Errorf("serve -shard needs -wire: routers reach shards over the binary protocol only")
	}

	st, err := store.New(*capacity, *dir)
	if err != nil {
		return err
	}
	if *in != "" {
		g, err := readRootGraph(*in)
		if err != nil {
			return err
		}
		fp, err := st.AddGraph(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "registered graph %016x (n=%d m=%d)\n", fp, g.N(), g.M())
		if *epsSpec != "" {
			alg, err := core.ParseAlgorithm(*algName)
			if err != nil {
				return err
			}
			var reqs []store.Req
			for _, spart := range strings.Split(*sourcesSpec, ",") {
				src, err := strconv.Atoi(strings.TrimSpace(spart))
				if err != nil {
					return fmt.Errorf("bad source %q", spart)
				}
				for _, epart := range strings.Split(*epsSpec, ",") {
					eps, err := strconv.ParseFloat(strings.TrimSpace(epart), 64)
					if err != nil {
						return fmt.Errorf("bad eps %q", epart)
					}
					reqs = append(reqs, store.Req{Source: src, Eps: eps, Alg: alg})
				}
			}
			sts, err := st.GetOrBuildMany(context.Background(), fp, reqs)
			if err != nil {
				return err
			}
			for i, s := range sts {
				fmt.Fprintf(stdout, "pre-built s=%d eps=%g: |H|=%d backup=%d reinforced=%d\n",
					reqs[i].Source, reqs[i].Eps, s.Size(), s.BackupCount(), s.ReinforcedCount())
			}
		}
		if *vertexSpec != "" {
			for _, spart := range strings.Split(*vertexSpec, ",") {
				src, err := strconv.Atoi(strings.TrimSpace(spart))
				if err != nil {
					return fmt.Errorf("bad vertex source %q", spart)
				}
				vs, err := st.GetOrBuildVertex(context.Background(), fp, src)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "pre-built vertex s=%d: |H|=%d pairs=%d\n",
					src, vs.Size(), vs.Pairs())
			}
		}
	}

	ctx, cancel := serveSignalContext()
	defer cancel()
	if err := startPprof(ctx, *pprofAddr, stdout); err != nil {
		return err
	}
	srv := server.New(st)
	srv.SetWorkLimits(*maxInflight, *maxQueued)
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		go func() { _ = wire.Serve(ctx, ln, srv) }()
		srv.SetWireAddr(ln.Addr().String())
		fmt.Fprintf(stdout, "ftbfs: wire protocol on %s\n", ln.Addr().String())
	}
	role := ""
	if *shard {
		role = "shard"
	}
	err = server.ServeDraining(ctx, *addr, srv, *drainGrace, func(bound string) {
		nodeID := *id
		if nodeID == "" {
			nodeID = bound
		}
		srv.SetIdentity(role, nodeID)
		if *shard {
			fmt.Fprintf(stdout, "ftbfs: shard %s serving on %s (graphs=%d, structures=%d)\n",
				nodeID, bound, st.Stats().Graphs, st.Len())
		} else {
			fmt.Fprintf(stdout, "ftbfs: serving on %s (graphs=%d, structures=%d)\n",
				bound, st.Stats().Graphs, st.Len())
		}
		serveReady(bound)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ftbfs: shut down cleanly")
	return nil
}
