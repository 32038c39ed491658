//! The learning-module schema and its JSON (de)serialization.

use crate::error::{ModuleError, Result};
use tw_json::{Map, Value};
use tw_matrix::{ColorMatrix, LabelSet, TrafficMatrix};

/// The declared matrix size of a module, written as `"NxN"` in the file.
///
/// The paper ships 6×6 and 10×10 templates but the format is not limited to
/// those; any square size parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixSize(pub usize);

impl MatrixSize {
    /// Parse from the module-file form, e.g. `"10x10"`.
    pub fn parse(text: &str) -> Result<Self> {
        let lower = text.to_ascii_lowercase();
        let (a, b) = lower
            .split_once('x')
            .ok_or_else(|| ModuleError::BadSize(text.to_string()))?;
        let rows: usize = a
            .trim()
            .parse()
            .map_err(|_| ModuleError::BadSize(text.to_string()))?;
        let cols: usize = b
            .trim()
            .parse()
            .map_err(|_| ModuleError::BadSize(text.to_string()))?;
        if rows != cols || rows == 0 {
            return Err(ModuleError::BadSize(text.to_string()));
        }
        Ok(MatrixSize(rows))
    }

    /// The module-file form, e.g. `10x10`.
    pub fn to_string_form(self) -> String {
        format!("{0}x{0}", self.0)
    }

    /// The dimension as a number.
    pub fn dimension(self) -> usize {
        self.0
    }
}

/// The optional multiple-choice question attached to a module.
///
/// The paper deliberately uses three answer options, and lets an educator
/// toggle the question off "for a more interactive experience where an
/// educator can have an open discussion or prompt an entire class through
/// online polls".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// The question text shown to the student.
    pub text: String,
    /// The answer options in authored order (the game shuffles them at display time).
    pub answers: Vec<String>,
    /// Index into `answers` of the correct option.
    pub correct_answer_element: usize,
}

impl Question {
    /// The correct answer's text, if the index is in range.
    pub fn correct_answer(&self) -> Option<&str> {
        self.answers
            .get(self.correct_answer_element)
            .map(String::as_str)
    }
}

/// One learning module: a titled, authored traffic matrix with colors and an
/// optional question.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningModule {
    /// The lesson title shown to the student.
    pub name: String,
    /// Declared matrix size (must match the actual matrix).
    pub size: MatrixSize,
    /// The module's author.
    pub author: String,
    /// The labelled traffic matrix.
    pub matrix: TrafficMatrix,
    /// The pallet color plane.
    pub colors: ColorMatrix,
    /// The optional question (None when `has_question` is false).
    pub question: Option<Question>,
    /// Optional hint text pointing the student at an external resource.
    pub hint: Option<String>,
}

impl LearningModule {
    /// Parse a module from JSON text.
    pub fn from_json(text: &str) -> Result<Self> {
        let value = tw_json::parse(text)?;
        Self::from_value(&value)
    }

    /// Parse a module from an already-parsed JSON value.
    pub fn from_value(value: &Value) -> Result<Self> {
        let obj = value
            .as_object()
            .ok_or(ModuleError::WrongType("<root>", "an object"))?;

        let name = require_str(obj, "name")?.to_string();
        let size = MatrixSize::parse(require_str(obj, "size")?)?;
        let author = require_str(obj, "author")?.to_string();

        let labels_value = obj
            .get("axis_labels")
            .ok_or(ModuleError::MissingField("axis_labels"))?;
        let labels_list = labels_value
            .as_string_list()
            .ok_or(ModuleError::WrongType("axis_labels", "an array of strings"))?;
        let labels = LabelSet::new(labels_list)?;

        let matrix_value = obj
            .get("traffic_matrix")
            .ok_or(ModuleError::MissingField("traffic_matrix"))?;
        let grid = matrix_value.as_u32_grid().ok_or(ModuleError::WrongType(
            "traffic_matrix",
            "an array of arrays of non-negative integers",
        ))?;
        let matrix = TrafficMatrix::from_grid(labels.clone(), &grid)?;

        let colors = match obj.get("traffic_matrix_colors") {
            Some(v) => {
                let color_grid = v.as_u32_grid().ok_or(ModuleError::WrongType(
                    "traffic_matrix_colors",
                    "an array of arrays of color codes (0, 1 or 2)",
                ))?;
                ColorMatrix::from_codes(&color_grid)?
            }
            None => ColorMatrix::grey(labels.len()),
        };

        let has_question = match obj.get("has_question") {
            Some(v) => v
                .as_bool()
                .ok_or(ModuleError::WrongType("has_question", "a boolean"))?,
            None => false,
        };
        let question = if has_question {
            let text = require_str(obj, "question")?.to_string();
            let answers = obj
                .get("answers")
                .ok_or(ModuleError::MissingField("answers"))?
                .as_string_list()
                .ok_or(ModuleError::WrongType("answers", "an array of strings"))?;
            let correct_answer_element = obj
                .get("correct_answer_element")
                .ok_or(ModuleError::MissingField("correct_answer_element"))?
                .as_usize()
                .ok_or(ModuleError::WrongType(
                    "correct_answer_element",
                    "a non-negative integer",
                ))?;
            Some(Question {
                text,
                answers,
                correct_answer_element,
            })
        } else {
            None
        };

        let hint = match obj.get("hint") {
            Some(v) => Some(
                v.as_str()
                    .ok_or(ModuleError::WrongType("hint", "a string"))?
                    .to_string(),
            ),
            None => None,
        };

        Ok(LearningModule {
            name,
            size,
            author,
            matrix,
            colors,
            question,
            hint,
        })
    }

    /// Serialize to a JSON value using the paper's field names and ordering.
    pub fn to_value(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("name", self.name.as_str());
        obj.insert("size", self.size.to_string_form());
        obj.insert("author", self.author.as_str());
        obj.insert(
            "axis_labels",
            Value::Array(
                self.matrix
                    .labels()
                    .labels()
                    .iter()
                    .map(|l| Value::from(l.as_str()))
                    .collect(),
            ),
        );
        obj.insert("traffic_matrix", grid_to_value(&self.matrix.to_grid()));
        obj.insert(
            "traffic_matrix_colors",
            grid_to_value(&self.colors.to_codes()),
        );
        obj.insert("has_question", self.question.is_some());
        if let Some(q) = &self.question {
            obj.insert("question", q.text.as_str());
            obj.insert(
                "answers",
                Value::Array(q.answers.iter().map(|a| Value::from(a.as_str())).collect()),
            );
            obj.insert("correct_answer_element", q.correct_answer_element);
        }
        if let Some(hint) = &self.hint {
            obj.insert("hint", hint.as_str());
        }
        Value::Object(obj)
    }

    /// Serialize to pretty-printed JSON text (matrix rows stay on one line, as
    /// an educator would type them).
    pub fn to_json(&self) -> String {
        tw_json::to_string_pretty(&self.to_value())
    }

    /// The matrix dimension.
    pub fn dimension(&self) -> usize {
        self.matrix.dimension()
    }

    /// True when the module has a question to ask.
    pub fn has_question(&self) -> bool {
        self.question.is_some()
    }
}

fn require_str<'a>(obj: &'a Map, field: &'static str) -> Result<&'a str> {
    obj.get(field)
        .ok_or(ModuleError::MissingField(field))?
        .as_str()
        .ok_or(ModuleError::WrongType(field, "a string"))
}

fn grid_to_value(grid: &[Vec<u32>]) -> Value {
    Value::Array(
        grid.iter()
            .map(|row| Value::Array(row.iter().map(|&v| Value::from(v)).collect()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The packet count from `source` to `destination`, by label.
    fn by_label(m: &TrafficMatrix, source: &str, destination: &str) -> Option<u32> {
        m.get(
            m.labels().index_of(source)?,
            m.labels().index_of(destination)?,
        )
    }

    /// The paper's full 10×10 template assembled from the Section II listings.
    pub(crate) fn paper_template_json() -> String {
        let mut matrix_rows = String::new();
        let mut color_rows = String::new();
        for i in 0..10 {
            let mut m_row = [0u32; 10];
            m_row[i] = 1;
            m_row[9 - i] = 2;
            let mut c_row = [0u32; 10];
            if i < 4 {
                c_row[6..10].fill(2);
            }
            if i >= 6 {
                c_row[0..4].fill(1);
            }
            matrix_rows.push_str(&format!(
                "[{}],\n",
                m_row
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            color_rows.push_str(&format!(
                "[{}],\n",
                c_row
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        format!(
            r#"{{
            "name":"10x10 Template",
            "size":"10x10",
            "author":"Chasen Milner",
            "axis_labels":[
                "WS1","WS2","WS3","SRV1",
                "EXT1","EXT2",
                "ADV1","ADV2","ADV3","ADV4",
            ],
            "traffic_matrix":[
            {matrix_rows}
            ],
            "traffic_matrix_colors":[
            {color_rows}
            ],
            "has_question":true,
            "question":"How many packets did WS1 send to ADV4?",
            "answers":["0", "1", "2",],
            "correct_answer_element":2,
        }}"#
        )
    }

    #[test]
    fn parses_the_paper_template() {
        let module = LearningModule::from_json(&paper_template_json()).unwrap();
        assert_eq!(module.name, "10x10 Template");
        assert_eq!(module.author, "Chasen Milner");
        assert_eq!(module.size, MatrixSize(10));
        assert_eq!(module.dimension(), 10);
        assert_eq!(by_label(&module.matrix, "WS1", "ADV4"), Some(2));
        assert_eq!(module.colors.get(0, 9).unwrap().code(), 2);
        let q = module.question.as_ref().unwrap();
        assert_eq!(q.text, "How many packets did WS1 send to ADV4?");
        assert_eq!(q.correct_answer(), Some("2"));
        assert!(module.has_question());
    }

    #[test]
    fn json_round_trip_preserves_the_module() {
        let module = LearningModule::from_json(&paper_template_json()).unwrap();
        let text = module.to_json();
        let reparsed = LearningModule::from_json(&text).unwrap();
        assert_eq!(reparsed, module);
        // Field order in the output follows the paper's listing order.
        let name_pos = text.find("\"name\"").unwrap();
        let size_pos = text.find("\"size\"").unwrap();
        let matrix_pos = text.find("\"traffic_matrix\"").unwrap();
        assert!(name_pos < size_pos && size_pos < matrix_pos);
    }

    #[test]
    fn matrix_size_parsing() {
        assert_eq!(MatrixSize::parse("10x10").unwrap(), MatrixSize(10));
        assert_eq!(MatrixSize::parse("6X6").unwrap(), MatrixSize(6));
        assert_eq!(MatrixSize::parse(" 8 x 8 ").unwrap(), MatrixSize(8));
        assert!(MatrixSize::parse("10x6").is_err());
        assert!(MatrixSize::parse("0x0").is_err());
        assert!(MatrixSize::parse("10by10").is_err());
        assert!(MatrixSize::parse("tenxten").is_err());
        assert_eq!(MatrixSize(6).to_string_form(), "6x6");
        assert_eq!(MatrixSize(12).dimension(), 12);
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = LearningModule::from_json(r#"{"size":"6x6"}"#).unwrap_err();
        assert_eq!(err, ModuleError::MissingField("name"));
        let err =
            LearningModule::from_json(r#"{"name":"x","size":"6x6","author":"a"}"#).unwrap_err();
        assert_eq!(err, ModuleError::MissingField("axis_labels"));
    }

    #[test]
    fn wrong_types_are_reported() {
        let err = LearningModule::from_json(r#"{"name":1,"size":"6x6","author":"a"}"#).unwrap_err();
        assert_eq!(err, ModuleError::WrongType("name", "a string"));
        let err = LearningModule::from_json(r#"[1,2,3]"#).unwrap_err();
        assert_eq!(err, ModuleError::WrongType("<root>", "an object"));
        let bad_matrix = r#"{"name":"x","size":"2x2","author":"a","axis_labels":["A","B"],
            "traffic_matrix":[["a","b"],["c","d"]]}"#;
        assert!(matches!(
            LearningModule::from_json(bad_matrix).unwrap_err(),
            ModuleError::WrongType("traffic_matrix", _)
        ));
    }

    #[test]
    fn question_fields_only_required_when_enabled() {
        let no_question = r#"{
            "name":"Discussion", "size":"2x2", "author":"a",
            "axis_labels":["A","B"],
            "traffic_matrix":[[0,1],[1,0]]
        }"#;
        let module = LearningModule::from_json(no_question).unwrap();
        assert!(!module.has_question());
        assert_eq!(module.colors.dimension(), 2, "colors default to all grey");

        let toggled_on_without_question = r#"{
            "name":"x", "size":"2x2", "author":"a",
            "axis_labels":["A","B"],
            "traffic_matrix":[[0,1],[1,0]],
            "has_question":true
        }"#;
        assert_eq!(
            LearningModule::from_json(toggled_on_without_question).unwrap_err(),
            ModuleError::MissingField("question")
        );
    }

    #[test]
    fn hint_field_round_trips() {
        let with_hint = r#"{
            "name":"x", "size":"2x2", "author":"a",
            "axis_labels":["A","B"],
            "traffic_matrix":[[0,1],[0,0]],
            "hint":"See the Zero Botnets report"
        }"#;
        let module = LearningModule::from_json(with_hint).unwrap();
        assert_eq!(module.hint.as_deref(), Some("See the Zero Botnets report"));
        let reparsed = LearningModule::from_json(&module.to_json()).unwrap();
        assert_eq!(reparsed.hint, module.hint);
    }

    #[test]
    fn mismatched_labels_and_matrix_are_rejected() {
        let bad = r#"{
            "name":"x", "size":"3x3", "author":"a",
            "axis_labels":["A","B","C"],
            "traffic_matrix":[[0,1],[1,0]]
        }"#;
        assert!(matches!(
            LearningModule::from_json(bad).unwrap_err(),
            ModuleError::Matrix(_)
        ));
    }
}
