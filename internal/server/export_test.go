package server

import "repro/internal/core"

// SessionEngine exposes a session's private engine to the external tests,
// which hold its frame to a from-scratch rasterization (core.FrameOracle).
func SessionEngine(ss *Session) *core.Engine { return ss.eng }
