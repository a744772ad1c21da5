package udt

import (
	"errors"
	"fmt"
	"net"

	"udt/internal/packet"
)

// Rendezvous connects to a peer that is simultaneously rendezvousing with
// us: both sides call Rendezvous at roughly the same time, each sends the
// other a handshake request, and the crossing itself establishes the
// connection — no listener on either side. This is the UDT rendezvous
// connect mode, the standard way to traverse NATs whose bindings only
// admit traffic to addresses already sent to.
//
// Rendezvous takes ownership of pc — the transport is closed when the
// returned Conn closes, and on failure — and works over any PacketConn
// fabric: a UDP socket punched through a NAT, a fabric.Pipe in tests, a
// fabric.Framed overlay stream. cfg may be nil for defaults; with a PSK
// both requests and the crossing response are authenticated exactly like
// an ordinary secure dial.
func Rendezvous(pc PacketConn, raddr net.Addr, cfg *Config) (*Conn, error) {
	return connectOn(pc, raddr, cfg, (*Mux).Rendezvous)
}

// RendezvousUDP is Rendezvous over a fresh UDP socket bound to laddr
// ("host:port"; the port both peers exchanged out of band) connecting to
// raddr. cfg may be nil for defaults.
func RendezvousUDP(laddr, raddr string, cfg *Config) (*Conn, error) {
	la, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udt: rendezvous %s: %w", laddr, err)
	}
	ra, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("udt: rendezvous %s: %w", raddr, err)
	}
	sock, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("udt: rendezvous %s: %w", laddr, err)
	}
	return Rendezvous(sock, ra, cfg)
}

// Rendezvous opens a UDT connection to a peer that is concurrently
// rendezvousing with this Mux's address. Both sides send handshake
// requests carrying the rendezvous option; when the requests cross, a
// deterministic tie-break on (cookie, rendezvous nonce, connection ID)
// picks exactly one side to answer, and both sides surface exactly one
// established connection. A rendezvous request reaching a Mux with a
// plain listener (no rendezvous pending for that peer) is served as an
// ordinary accept, so a rendezvous dialer interoperates with listeners.
//
// At most one rendezvous per remote address may be in flight on a Mux;
// ordinary dials and a listener coexist freely alongside it.
func (m *Mux) Rendezvous(raddr net.Addr) (*Conn, error) {
	if raddr == nil {
		return nil, errors.New("udt: rendezvous: nil remote address")
	}
	// An ordinary dial plus the rendezvous option and a seat in the crossing
	// table. Establishment arrives one of two ways: the peer's request
	// crosses ours and loses the tie-break — the read loop answers it and
	// delivers the connection through pd.estab — or the peer (a crossing
	// winner, or a plain listener) answers our request like any dial's.
	pd := m.newDial(raddr)
	pd.req.RdvFlags = packet.RdvDial
	pd.req.RdvNonce = uint64(uint32(m.randInt31()))<<32 | uint64(uint32(m.randInt31()))
	pd.rdvKey = pd.flow.raddr.String()
	pd.estab = make(chan *Conn, 1)
	return m.connect(pd)
}

// rdvWins decides the crossing tie-break: whether our pending request
// beats the peer's. The comparison is on (cookie, rendezvous nonce,
// connection ID) as unsigned tuples — both sides compute it on the same
// two requests and reach opposite conclusions, so exactly one side
// answers. An exact tie (astronomically unlikely with independent
// randomness) leaves both sides quiet until their handshake deadlines.
func rdvWins(ours, theirs *packet.Handshake) bool {
	if ours.Cookie != theirs.Cookie {
		return ours.Cookie > theirs.Cookie
	}
	if ours.RdvNonce != theirs.RdvNonce {
		return ours.RdvNonce > theirs.RdvNonce
	}
	return uint32(ours.ConnID) > uint32(theirs.ConnID)
}

// rendezvousCross handles a handshake request carrying the rendezvous
// option, on the read-loop goroutine. Unlike answerRequest there is no
// stateless-cookie challenge: both sides have already committed local
// state by calling Rendezvous, and the reply targets an address we are
// ourselves actively transmitting to, so there is no amplification to
// prevent — but with a PSK the request authenticator must still verify.
func (m *Mux) rendezvousCross(hs packet.Handshake, from net.Addr, raw []byte) {
	key := acceptKey(&hs, from)
	m.mu.Lock()
	closed := m.closed
	e := m.accepted[key]
	pd := m.rdv[from.String()]
	m.mu.Unlock()
	if closed {
		return
	}
	if pd == nil && e == nil {
		// No rendezvous pending with this peer: a listener, if any, serves
		// the request like an ordinary dial (full gate, cookie challenge
		// included).
		m.answerRequest(hs, from, raw)
		return
	}
	if !m.authentic(&hs, raw) {
		return
	}
	if e != nil {
		// Duplicate of a crossing we already answered (our response was
		// lost): re-answer bit-identically, as answerRequest does.
		m.reply(&e.resp, from)
		return
	}
	if !rdvWins(&pd.req, &hs) {
		// We lost the tie-break: stay quiet and keep retransmitting our own
		// request; the winner answers it.
		return
	}
	m.rdvAccept(pd, hs, from, key)
}

// rdvAccept answers the losing side of a crossing: build the connection
// on the pending dial's already-allocated flow, pin the response for
// duplicate requests, and hand the connection to the goroutine parked in
// await. Runs on the read-loop goroutine.
func (m *Mux) rdvAccept(pd *pendingDial, hs packet.Handshake, from net.Addr, key string) {
	m.mu.Lock()
	if m.closed || m.rdv[pd.rdvKey] != pd {
		// The dial resolved (response path, timeout, or teardown) between
		// the crossing lookup and now; retransmits of an accepted crossing
		// are re-answered from the accepted table instead.
		m.mu.Unlock()
		return
	}
	flow := pd.flow
	flow.peerID = hs.SockID // validated by handleHandshake
	flow.acceptKey = key
	// The response reuses the ISN our retransmitting request advertises,
	// so the peer computes the same sequence state from either packet.
	resp := packet.Handshake{
		Version:    packet.Version,
		InitSeq:    pd.req.InitSeq,
		ReqType:    packet.HSResponse,
		ConnID:     hs.ConnID,
		SockID:     flow.id,
		PeerSockID: hs.SockID,
		RdvFlags:   packet.RdvDial,
		RdvNonce:   pd.req.RdvNonce,
	}
	conn, err := m.establishLocked(flow, &resp, &hs)
	if err != nil {
		m.mu.Unlock()
		return
	}
	delete(m.rdv, pd.rdvKey)   // claim: the crossing resolved this dial
	delete(m.pending, flow.id) // stray responses can no longer race in
	m.mu.Unlock()

	m.reply(&resp, from) // the peer's retries are re-answered above
	pd.estab <- conn     // buffered; sent exactly once, guarded by the claim
}
