package schedule

// RefValidate exposes the map-based reference validator to the external
// differential tests, which need faultinject and the schedulers (both
// import this package).
func (s *Schedule) RefValidate() error { return s.refValidate() }
