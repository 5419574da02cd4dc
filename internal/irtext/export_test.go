package irtext

// RefParse exposes the reference parser to the external tests.
var RefParse = refParse

// RefPrint and RefInstrString expose the reference renderer to the
// external tests.
var (
	RefPrint       = refPrint
	RefInstrString = refInstrString
)

// TextLen exposes String's buffer sizing to the external tests.
var TextLen = textLen
