package irtext

// RefParse exposes the reference parser to the external tests.
var RefParse = refParse
