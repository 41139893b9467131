package mpsim

// TransportBuilt reports whether e has built a transport: a chaos
// engine builds one at New, a chan or slot engine on the first run of
// the engine's driver.
func TransportBuilt(e *Engine) bool { return e.tr != nil }
