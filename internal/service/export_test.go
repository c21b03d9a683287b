package service

// SetEngineBuilder replaces the engine factory. Call before serving; the
// tests use it to wrap the default engines in fault injectors without
// touching the HTTP surface.
func (s *Server) SetEngineBuilder(b EngineBuilder) { s.buildEngine = b }
