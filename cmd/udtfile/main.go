// Command udtfile transfers files over UDT using the sendfile/recvfile API
// (paper §4.7) and, in -serve/-fetch mode, the resumable udtfs service.
//
// Receive side:  udtfile -recv -addr :9001 -out dir/ [-once]
// Send side:     udtfile -send path/to/file -to host:9001 [-cc ctcp]
//
// Serve side:    udtfile -serve dir-or-file -addr :9001
// Fetch side:    udtfile -fetch name -to host:9001 -out dir/ [-resume]
// Range fetch:   udtfile -fetch name -to host:9001 [-offset N] [-limit N]
//
// A fetch writes to <out>/<name>.part and renames on completion, so a
// partial file never masquerades as a finished one; -resume picks an
// existing .part back up, re-hashing the stored prefix and asking the
// server only for the remainder. The fetch survives dropped connections
// by re-dialing and resuming from the verified byte offset by itself.
//
// With -rendezvous LADDR both peers connect simultaneously through
// symmetric firewalls — no listener: the fetch side re-crosses for every
// resume, and a -serve -rendezvous peer answers one crossing per
// connection (loop with -once off, single transfer with -once on).
//
// With -psk (both sides, min 16 bytes) the handshake is authenticated and
// unauthenticated peers are refused; -aead additionally seals every data
// packet with AES-256-GCM.
//
// Both sides print the connection's final protocol statistics (congestion
// controller, retransmissions, loss, RTT) and exit nonzero when a transfer
// fails — -once makes the receiver serve exactly one transfer so scripts
// can check its exit status.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"udt"
	"udt/udtfs"
)

func main() {
	recv := flag.Bool("recv", false, "receive files")
	addr := flag.String("addr", ":9001", "receive/serve listen address")
	out := flag.String("out", ".", "receive/fetch output directory")
	once := flag.Bool("once", false, "receive exactly one transfer, then exit (nonzero if it failed)")
	send := flag.String("send", "", "file to send")
	to := flag.String("to", "", "destination host:port")
	serve := flag.String("serve", "", "serve a file or directory over udtfs")
	fetch := flag.String("fetch", "", "fetch the named file from a udtfs server (-to)")
	resume := flag.Bool("resume", false, "fetch: continue from an existing .part file")
	offset := flag.Int64("offset", 0, "fetch: start at this byte offset")
	limit := flag.Int64("limit", 0, "fetch: stop after this many bytes (0 = to end of file)")
	rendezvous := flag.String("rendezvous", "", "local address for rendezvous connect (both sides dial, no listener)")
	ccName := flag.String("cc", "", fmt.Sprintf("congestion controller for the sending side %v; default native", udt.CongestionControls()))
	psk := flag.String("psk", "", "pre-shared key: authenticate the handshake (Config.PSK; min 16 bytes, both sides)")
	aead := flag.Bool("aead", false, "seal data packets with AES-256-GCM (Config.AEAD; requires -psk)")
	flag.Parse()

	switch {
	case *recv:
		runRecv(*addr, *out, *once, *psk, *aead)
	case *send != "" && *to != "":
		runSend(*send, *to, *ccName, *psk, *aead)
	case *serve != "":
		runServe(*serve, *addr, *rendezvous, *to, *once, *psk, *aead)
	case *fetch != "" && *to != "":
		runFetch(*fetch, *to, *rendezvous, *out, *resume, *offset, *limit, *psk, *aead)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// statsLine summarizes a connection's final protocol counters — the same
// fields udtperf reports, so the two tools' outputs line up.
func statsLine(st udt.Stats) string {
	return fmt.Sprintf("cc %s, retrans %d, loss events %d, dups %d, rtt %v, mux drops %d/%d, auth rejects %d, cookies %d",
		st.CCName, st.PktsRetrans, st.LossEvents, st.PktsDup,
		st.RTT.Round(10*time.Microsecond), st.MuxUnknownDest, st.MuxShortDatagram,
		st.AuthRejects, st.CookieSent)
}

func runRecv(addr, dir string, once bool, psk string, aead bool) {
	ln, err := udt.Listen(addr, &udt.Config{PSK: []byte(psk), AEAD: aead})
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("udtfile receiving on %s into %s", ln.Addr(), dir)
	for i := 0; ; i++ {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		name := filepath.Join(dir, time.Now().Format("udtfile-20060102-150405.000"))
		f, err := os.Create(name)
		if err != nil {
			log.Printf("create: %v", err)
			c.Close()
			if once {
				os.Exit(1)
			}
			continue
		}
		start := time.Now()
		n, err := c.RecvFile(f)
		st := c.Stats()
		f.Close()
		c.Close()
		if err != nil {
			log.Printf("recv %s failed after %.1f MB: %v (%s)", name, float64(n)/1e6, err, statsLine(st))
			if once {
				os.Exit(1)
			}
			continue
		}
		el := time.Since(start)
		log.Printf("received %s: %.1f MB in %v = %.1f Mb/s (%s)",
			name, float64(n)/1e6, el.Round(time.Millisecond), float64(n*8)/el.Seconds()/1e6, statsLine(st))
		if once {
			return
		}
	}
}

// runServe registers root (one file, or every regular file directly in a
// directory, by base name) with a udtfs server and serves it — from a
// listener, or one rendezvous crossing per connection when -rendezvous is
// set.
func runServe(root, addr, rdvAddr, to string, once bool, psk string, aead bool) {
	cfg := &udt.Config{PSK: []byte(psk), AEAD: aead}
	srv := udtfs.NewServer(udtfs.ServerConfig{})
	fi, err := os.Stat(root)
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	if fi.IsDir() {
		ents, err := os.ReadDir(root)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range ents {
			if e.Type().IsRegular() {
				srv.Register(e.Name(), filepath.Join(root, e.Name()))
				count++
			}
		}
	} else {
		srv.Register(filepath.Base(root), root)
		count++
	}
	if count == 0 {
		log.Fatalf("serve %s: no regular files to register", root)
	}
	if rdvAddr != "" {
		if to == "" {
			log.Fatal("-serve with -rendezvous needs -to (the peer's address)")
		}
		// No listener: answer one crossing per served connection. The fetch
		// side re-crosses on every resume, so serve in a loop unless -once.
		for {
			c, err := udt.RendezvousUDP(rdvAddr, to, cfg)
			if err != nil {
				log.Fatalf("rendezvous: %v", err)
			}
			log.Printf("udtfile serving %d file(s) to %s over rendezvous", count, c.RemoteAddr())
			srv.ServeConn(c) //nolint:errcheck // connection death is how serving ends
			if once {
				return
			}
		}
	}
	ln, err := udt.Listen(addr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("udtfile serving %d file(s) on %s", count, ln.Addr())
	log.Fatal(srv.Serve(ln))
}

// runFetch retrieves one named file into dir using the .part convention:
// bytes land in <name>.part and the file is renamed only when complete, so
// an interrupted fetch leaves a resumable partial, never a corrupt final.
func runFetch(name, to, rdvAddr, dir string, resume bool, offset, limit int64, psk string, aead bool) {
	cfg := &udt.Config{PSK: []byte(psk), AEAD: aead}
	dial := func() (*udt.Conn, error) { return udt.Dial(to, cfg) }
	if rdvAddr != "" {
		dial = func() (*udt.Conn, error) { return udt.RendezvousUDP(rdvAddr, to, cfg) }
	}
	f := &udtfs.Fetcher{Dial: dial}
	final := filepath.Join(dir, filepath.Base(name))
	part := final + ".part"
	var res udtfs.FetchResult
	var err error
	start := time.Now()
	switch {
	case offset > 0 || limit > 0:
		if resume {
			log.Fatal("-resume applies to whole-file fetches; it cannot combine with -offset/-limit")
		}
		out, cerr := os.Create(part)
		if cerr != nil {
			log.Fatal(cerr)
		}
		res, err = f.FetchRange(name, out, offset, limit)
		out.Close() //nolint:errcheck
	case resume:
		// One O_RDWR handle plays both roles: ResumeFetch reads it to EOF
		// re-hashing the stored prefix, then the remainder appends at the
		// resulting file offset.
		pf, oerr := os.OpenFile(part, os.O_RDWR|os.O_CREATE, 0o644)
		if oerr != nil {
			log.Fatal(oerr)
		}
		res, err = f.ResumeFetch(name, pf, pf)
		pf.Close() //nolint:errcheck
	default:
		out, cerr := os.Create(part)
		if cerr != nil {
			log.Fatal(cerr)
		}
		res, err = f.Fetch(name, out)
		out.Close() //nolint:errcheck
	}
	if err != nil {
		log.Fatalf("fetch %s failed after %.1f MB (kept %s for -resume): %v",
			name, float64(res.Bytes)/1e6, part, err)
	}
	if err := os.Rename(part, final); err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	log.Printf("fetched %s: %.1f MB of %.1f MB in %v = %.1f Mb/s, %d resume(s), sha256 %x",
		final, float64(res.Bytes)/1e6, float64(res.Size)/1e6, el.Round(time.Millisecond),
		float64(res.Bytes*8)/el.Seconds()/1e6, res.Resumes, res.SHA256)
}

func runSend(path, to, ccName, psk string, aead bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	cc, err := udt.CongestionControl(ccName)
	if err != nil {
		log.Fatal(err)
	}
	c, err := udt.Dial(to, &udt.Config{CC: cc, PSK: []byte(psk), AEAD: aead})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	// Regular files take the zero-copy path: SendFileZC maps the file and
	// sends packets straight out of the page cache, falling back to the
	// copying loop by itself when the platform or file rules mapping out.
	var n int64
	if fi.Mode().IsRegular() {
		n, err = c.SendFileZC(f)
	} else {
		n, err = c.SendFile(f, fi.Size())
	}
	if err != nil {
		log.Fatalf("send %s failed after %.1f MB: %v (%s)", path, float64(n)/1e6, err, statsLine(c.Stats()))
	}
	if n != fi.Size() {
		log.Fatalf("send %s: short transfer, %d of %d bytes (%s)", path, n, fi.Size(), statsLine(c.Stats()))
	}
	for !c.Drained() {
		time.Sleep(10 * time.Millisecond)
	}
	el := time.Since(start)
	st := c.Stats()
	log.Printf("sent %s: %.1f MB in %v = %.1f Mb/s (%s)",
		path, float64(n)/1e6, el.Round(time.Millisecond),
		float64(n*8)/el.Seconds()/1e6, statsLine(st))
}
