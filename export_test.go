package udt

import "udt/internal/core"

// Hooks for the external tests (package udt_test), which can import what
// imports udt — the chaos harness among them.

// NewParkedConn is newParkedConn over a discarding socket, telemetry off.
func NewParkedConn(cfg Config) *Conn {
	cfg.PerfHistory = -1
	return newParkedConn(cfg, &discardSock{}, nil)
}

// Endpoint is the flow endpoint runTask services.
func (c *Conn) Endpoint() *core.Endpoint { return &c.ep }

// ClockNow reads the clock runTask reads.
func (c *Conn) ClockNow() int64 { return c.clock.Now() }

// RunTask runs one sender service and returns the deadline the shard
// would park the connection until.
func (c *Conn) RunTask() int64 {
	wake, _ := c.runTask()
	return wake
}
