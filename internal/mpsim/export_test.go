package mpsim

// TransportBuilt reports whether e has built a transport, which the
// engine does on the first run of its own driver.
func TransportBuilt(e *Engine) bool { return e.tr != nil }
