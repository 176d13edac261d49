package wire

// SetSelfReadHooks installs the hooks a pool reader calls before it serves
// an event and a session calls before it takes its socket over; nil clears
// them. Set them before Serve and clear them after Shutdown.
func SetSelfReadHooks(serveRead, takeover func()) {
	hookServeRead, hookTakeover = serveRead, takeover
}
